//! The in-place tier's execution of all *simple* (non-control, non-call)
//! instructions, keyed on the raw opcode byte.
//!
//! [`exec_simple`] is the one definition of the ~140 numeric, memory and
//! variable opcodes' semantics on the in-place tier: it reads an op's
//! immediates straight from the function's code bytes, retires the op, and
//! applies it — no decoded instruction value in between. The lowered tier
//! compiles the same opcodes to its own register code; the tier-equivalence
//! property tests hold the two to the same results.

use crate::instance::Instance;
use crate::instr::op;
use crate::interp::{decode_trap, imm_i32, imm_i64, imm_memarg_offset, imm_u32, retire};
use crate::values::{nearest_f32, nearest_f64, trunc, Slot, Trap};
use crate::DecodeError;

/// Result of attempting to execute an opcode as "simple".
pub(crate) enum Simple {
    /// Executed and retired; `pc`/stack/locals/globals/memory updated.
    Done,
    /// Control-flow or call opcode — nothing read, retired or changed; the
    /// interpreter loop must handle it.
    NotSimple,
}

#[inline(always)]
fn pop(stack: &mut Vec<Slot>) -> Slot {
    stack.pop().expect("validated stack")
}

/// Execute `opcode` (already consumed; `*pc` is just past it) if it is a
/// simple instruction: read its immediates from `code`, advancing `*pc`;
/// retire it ([`retire`]: fuel, epoch, peak stack); then apply it.
#[inline(always)]
pub(crate) fn exec_simple(
    opcode: u8,
    code: &[u8],
    pc: &mut usize,
    stack: &mut Vec<Slot>,
    locals: &mut [Slot],
    inst: &mut Instance,
) -> Result<Simple, Trap> {
    macro_rules! retire {
        () => {
            retire(inst, stack.len())?
        };
    }
    macro_rules! mem {
        () => {
            inst.memory.as_mut().expect("validated memory access")
        };
    }
    macro_rules! binop {
        (i32, $f:expr) => {{
            retire!();
            let b = pop(stack).i32();
            let a = pop(stack).i32();
            stack.push(Slot::from_i32($f(a, b)));
        }};
        (u32, $f:expr) => {{
            retire!();
            let b = pop(stack).u32();
            let a = pop(stack).u32();
            stack.push(Slot::from_u32($f(a, b)));
        }};
        (i64, $f:expr) => {{
            retire!();
            let b = pop(stack).i64();
            let a = pop(stack).i64();
            stack.push(Slot::from_i64($f(a, b)));
        }};
        (u64, $f:expr) => {{
            retire!();
            let b = pop(stack).u64();
            let a = pop(stack).u64();
            stack.push(Slot::from_u64($f(a, b)));
        }};
        (f32, $f:expr) => {{
            retire!();
            let b = pop(stack).f32();
            let a = pop(stack).f32();
            stack.push(Slot::from_f32($f(a, b)));
        }};
        (f64, $f:expr) => {{
            retire!();
            let b = pop(stack).f64();
            let a = pop(stack).f64();
            stack.push(Slot::from_f64($f(a, b)));
        }};
    }
    macro_rules! relop {
        ($getter:ident, $f:expr) => {{
            retire!();
            let b = pop(stack).$getter();
            let a = pop(stack).$getter();
            stack.push(Slot::from_bool($f(&a, &b)));
        }};
    }
    macro_rules! unop {
        ($getter:ident, $from:ident, $f:expr) => {{
            retire!();
            let a = pop(stack).$getter();
            stack.push(Slot::$from($f(a)));
        }};
    }
    // Division, remainder and float→int truncation: a binop/unop that can
    // trap after popping its operands.
    macro_rules! trapping {
        (2, $get:ident, $from:ident, $f:expr) => {{
            retire!();
            let b = pop(stack).$get();
            let a = pop(stack).$get();
            stack.push(Slot::$from($f(a, b)?));
        }};
        (1, $get:ident, $from:ident, $f:expr) => {{
            retire!();
            let a = pop(stack).$get();
            stack.push(Slot::$from($f(a)?));
        }};
    }
    macro_rules! load {
        ($n:literal, $conv:expr) => {{
            let offset = imm_memarg_offset(code, pc)?;
            retire!();
            let addr = pop(stack).u32();
            let bytes: [u8; $n] = mem!().read(addr, offset)?;
            stack.push($conv(bytes));
        }};
    }
    macro_rules! store {
        ($getter:ident, $to:expr) => {{
            let offset = imm_memarg_offset(code, pc)?;
            retire!();
            let v = pop(stack).$getter();
            let addr = pop(stack).u32();
            mem!().write(addr, offset, $to(v))?;
        }};
    }
    // memory.size / memory.grow carry a reserved zero byte.
    macro_rules! reserved_zero {
        () => {
            if imm_u32(code, pc)? != 0 {
                return Err(decode_trap(DecodeError::Malformed("memory reserved byte".into())));
            }
        };
    }
    macro_rules! float_bytes {
        ($n:literal) => {{
            let bytes: [u8; $n] = code
                .get(*pc..*pc + $n)
                .and_then(|b| b.try_into().ok())
                .ok_or_else(|| decode_trap(DecodeError::UnexpectedEof))?;
            *pc += $n;
            bytes
        }};
    }

    match opcode {
        // Control flow and calls are the interpreter loop's.
        op::UNREACHABLE
        | op::BLOCK
        | op::LOOP
        | op::IF
        | op::ELSE
        | op::END
        | op::BR
        | op::BR_IF
        | op::BR_TABLE
        | op::RETURN
        | op::CALL
        | op::CALL_INDIRECT => return Ok(Simple::NotSimple),

        op::NOP => retire!(),
        op::DROP => {
            retire!();
            pop(stack);
        }
        op::SELECT => {
            retire!();
            let c = pop(stack).i32();
            let b = pop(stack);
            let a = pop(stack);
            stack.push(if c != 0 { a } else { b });
        }
        op::LOCAL_GET => {
            let idx = imm_u32(code, pc)? as usize;
            retire!();
            stack.push(locals[idx]);
        }
        op::LOCAL_SET => {
            let idx = imm_u32(code, pc)? as usize;
            retire!();
            locals[idx] = pop(stack);
        }
        op::LOCAL_TEE => {
            let idx = imm_u32(code, pc)? as usize;
            retire!();
            locals[idx] = *stack.last().expect("validated");
        }
        op::GLOBAL_GET => {
            let idx = imm_u32(code, pc)? as usize;
            retire!();
            stack.push(inst.globals[idx]);
        }
        op::GLOBAL_SET => {
            let idx = imm_u32(code, pc)? as usize;
            retire!();
            inst.globals[idx] = pop(stack);
        }

        op::I32_LOAD => load!(4, |b| Slot::from_u32(u32::from_le_bytes(b))),
        op::I64_LOAD => load!(8, |b| Slot::from_u64(u64::from_le_bytes(b))),
        op::F32_LOAD => load!(4, |b| Slot::from_u32(u32::from_le_bytes(b))),
        op::F64_LOAD => load!(8, |b| Slot::from_u64(u64::from_le_bytes(b))),
        op::I32_LOAD8_S => load!(1, |b: [u8; 1]| Slot::from_i32(b[0] as i8 as i32)),
        op::I32_LOAD8_U => load!(1, |b: [u8; 1]| Slot::from_u32(b[0] as u32)),
        op::I32_LOAD16_S => load!(2, |b| Slot::from_i32(i16::from_le_bytes(b) as i32)),
        op::I32_LOAD16_U => load!(2, |b| Slot::from_u32(u16::from_le_bytes(b) as u32)),
        op::I64_LOAD8_S => load!(1, |b: [u8; 1]| Slot::from_i64(b[0] as i8 as i64)),
        op::I64_LOAD8_U => load!(1, |b: [u8; 1]| Slot::from_u64(b[0] as u64)),
        op::I64_LOAD16_S => load!(2, |b| Slot::from_i64(i16::from_le_bytes(b) as i64)),
        op::I64_LOAD16_U => load!(2, |b| Slot::from_u64(u16::from_le_bytes(b) as u64)),
        op::I64_LOAD32_S => load!(4, |b| Slot::from_i64(i32::from_le_bytes(b) as i64)),
        op::I64_LOAD32_U => load!(4, |b| Slot::from_u64(u32::from_le_bytes(b) as u64)),
        op::I32_STORE => store!(u32, |v: u32| v.to_le_bytes()),
        op::I64_STORE => store!(u64, |v: u64| v.to_le_bytes()),
        op::F32_STORE => store!(u32, |v: u32| v.to_le_bytes()),
        op::F64_STORE => store!(u64, |v: u64| v.to_le_bytes()),
        op::I32_STORE8 => store!(u32, |v: u32| [v as u8]),
        op::I32_STORE16 => store!(u32, |v: u32| (v as u16).to_le_bytes()),
        op::I64_STORE8 => store!(u64, |v: u64| [v as u8]),
        op::I64_STORE16 => store!(u64, |v: u64| (v as u16).to_le_bytes()),
        op::I64_STORE32 => store!(u64, |v: u64| (v as u32).to_le_bytes()),
        op::MEMORY_SIZE => {
            reserved_zero!();
            retire!();
            let pages = mem!().size_pages();
            stack.push(Slot::from_u32(pages));
        }
        op::MEMORY_GROW => {
            reserved_zero!();
            retire!();
            let delta = pop(stack).u32();
            let r = mem!().grow(delta);
            stack.push(Slot::from_i32(r));
        }

        op::I32_CONST => {
            let v = imm_i32(code, pc)?;
            retire!();
            stack.push(Slot::from_i32(v));
        }
        op::I64_CONST => {
            let v = imm_i64(code, pc)?;
            retire!();
            stack.push(Slot::from_i64(v));
        }
        op::F32_CONST => {
            let v = f32::from_le_bytes(float_bytes!(4));
            retire!();
            stack.push(Slot::from_f32(v));
        }
        op::F64_CONST => {
            let v = f64::from_le_bytes(float_bytes!(8));
            retire!();
            stack.push(Slot::from_f64(v));
        }

        op::I32_EQZ => unop!(i32, from_bool, |a| a == 0),
        op::I32_EQ => relop!(i32, i32::eq),
        op::I32_NE => relop!(i32, i32::ne),
        op::I32_LT_S => relop!(i32, i32::lt),
        op::I32_LT_U => relop!(u32, u32::lt),
        op::I32_GT_S => relop!(i32, i32::gt),
        op::I32_GT_U => relop!(u32, u32::gt),
        op::I32_LE_S => relop!(i32, i32::le),
        op::I32_LE_U => relop!(u32, u32::le),
        op::I32_GE_S => relop!(i32, i32::ge),
        op::I32_GE_U => relop!(u32, u32::ge),
        op::I64_EQZ => unop!(i64, from_bool, |a| a == 0),
        op::I64_EQ => relop!(i64, i64::eq),
        op::I64_NE => relop!(i64, i64::ne),
        op::I64_LT_S => relop!(i64, i64::lt),
        op::I64_LT_U => relop!(u64, u64::lt),
        op::I64_GT_S => relop!(i64, i64::gt),
        op::I64_GT_U => relop!(u64, u64::gt),
        op::I64_LE_S => relop!(i64, i64::le),
        op::I64_LE_U => relop!(u64, u64::le),
        op::I64_GE_S => relop!(i64, i64::ge),
        op::I64_GE_U => relop!(u64, u64::ge),
        op::F32_EQ => relop!(f32, |a: &f32, b: &f32| a == b),
        op::F32_NE => relop!(f32, |a: &f32, b: &f32| a != b),
        op::F32_LT => relop!(f32, |a: &f32, b: &f32| a < b),
        op::F32_GT => relop!(f32, |a: &f32, b: &f32| a > b),
        op::F32_LE => relop!(f32, |a: &f32, b: &f32| a <= b),
        op::F32_GE => relop!(f32, |a: &f32, b: &f32| a >= b),
        op::F64_EQ => relop!(f64, |a: &f64, b: &f64| a == b),
        op::F64_NE => relop!(f64, |a: &f64, b: &f64| a != b),
        op::F64_LT => relop!(f64, |a: &f64, b: &f64| a < b),
        op::F64_GT => relop!(f64, |a: &f64, b: &f64| a > b),
        op::F64_LE => relop!(f64, |a: &f64, b: &f64| a <= b),
        op::F64_GE => relop!(f64, |a: &f64, b: &f64| a >= b),

        op::I32_CLZ => unop!(u32, from_u32, |a: u32| a.leading_zeros()),
        op::I32_CTZ => unop!(u32, from_u32, |a: u32| a.trailing_zeros()),
        op::I32_POPCNT => unop!(u32, from_u32, |a: u32| a.count_ones()),
        op::I32_ADD => binop!(i32, i32::wrapping_add),
        op::I32_SUB => binop!(i32, i32::wrapping_sub),
        op::I32_MUL => binop!(i32, i32::wrapping_mul),
        op::I32_DIV_S => trapping!(2, i32, from_i32, |a: i32, b: i32| {
            if b == 0 {
                Err(Trap::IntegerDivideByZero)
            } else if a == i32::MIN && b == -1 {
                Err(Trap::IntegerOverflow)
            } else {
                Ok(a.wrapping_div(b))
            }
        }),
        op::I32_DIV_U => trapping!(2, u32, from_u32, |a: u32, b: u32| a
            .checked_div(b)
            .ok_or(Trap::IntegerDivideByZero)),
        op::I32_REM_S => trapping!(2, i32, from_i32, |a: i32, b: i32| {
            if b == 0 {
                Err(Trap::IntegerDivideByZero)
            } else {
                Ok(a.wrapping_rem(b))
            }
        }),
        op::I32_REM_U => trapping!(2, u32, from_u32, |a: u32, b: u32| a
            .checked_rem(b)
            .ok_or(Trap::IntegerDivideByZero)),
        op::I32_AND => binop!(u32, |a, b| a & b),
        op::I32_OR => binop!(u32, |a, b| a | b),
        op::I32_XOR => binop!(u32, |a, b| a ^ b),
        op::I32_SHL => binop!(u32, |a: u32, b: u32| a.wrapping_shl(b)),
        op::I32_SHR_S => {
            retire!();
            let b = pop(stack).u32();
            let a = pop(stack).i32();
            stack.push(Slot::from_i32(a.wrapping_shr(b)));
        }
        op::I32_SHR_U => binop!(u32, |a: u32, b: u32| a.wrapping_shr(b)),
        op::I32_ROTL => binop!(u32, |a: u32, b: u32| a.rotate_left(b & 31)),
        op::I32_ROTR => binop!(u32, |a: u32, b: u32| a.rotate_right(b & 31)),
        op::I64_CLZ => unop!(u64, from_u64, |a: u64| a.leading_zeros() as u64),
        op::I64_CTZ => unop!(u64, from_u64, |a: u64| a.trailing_zeros() as u64),
        op::I64_POPCNT => unop!(u64, from_u64, |a: u64| a.count_ones() as u64),
        op::I64_ADD => binop!(i64, i64::wrapping_add),
        op::I64_SUB => binop!(i64, i64::wrapping_sub),
        op::I64_MUL => binop!(i64, i64::wrapping_mul),
        op::I64_DIV_S => trapping!(2, i64, from_i64, |a: i64, b: i64| {
            if b == 0 {
                Err(Trap::IntegerDivideByZero)
            } else if a == i64::MIN && b == -1 {
                Err(Trap::IntegerOverflow)
            } else {
                Ok(a.wrapping_div(b))
            }
        }),
        op::I64_DIV_U => trapping!(2, u64, from_u64, |a: u64, b: u64| a
            .checked_div(b)
            .ok_or(Trap::IntegerDivideByZero)),
        op::I64_REM_S => trapping!(2, i64, from_i64, |a: i64, b: i64| {
            if b == 0 {
                Err(Trap::IntegerDivideByZero)
            } else {
                Ok(a.wrapping_rem(b))
            }
        }),
        op::I64_REM_U => trapping!(2, u64, from_u64, |a: u64, b: u64| a
            .checked_rem(b)
            .ok_or(Trap::IntegerDivideByZero)),
        op::I64_AND => binop!(u64, |a, b| a & b),
        op::I64_OR => binop!(u64, |a, b| a | b),
        op::I64_XOR => binop!(u64, |a, b| a ^ b),
        op::I64_SHL => binop!(u64, |a: u64, b: u64| a.wrapping_shl(b as u32)),
        op::I64_SHR_S => {
            retire!();
            let b = pop(stack).u64();
            let a = pop(stack).i64();
            stack.push(Slot::from_i64(a.wrapping_shr(b as u32)));
        }
        op::I64_SHR_U => binop!(u64, |a: u64, b: u64| a.wrapping_shr(b as u32)),
        op::I64_ROTL => binop!(u64, |a: u64, b: u64| a.rotate_left((b & 63) as u32)),
        op::I64_ROTR => binop!(u64, |a: u64, b: u64| a.rotate_right((b & 63) as u32)),

        op::F32_ABS => unop!(f32, from_f32, f32::abs),
        op::F32_NEG => unop!(f32, from_f32, |a: f32| -a),
        op::F32_CEIL => unop!(f32, from_f32, f32::ceil),
        op::F32_FLOOR => unop!(f32, from_f32, f32::floor),
        op::F32_TRUNC => unop!(f32, from_f32, f32::trunc),
        op::F32_NEAREST => unop!(f32, from_f32, nearest_f32),
        op::F32_SQRT => unop!(f32, from_f32, f32::sqrt),
        op::F32_ADD => binop!(f32, |a, b| a + b),
        op::F32_SUB => binop!(f32, |a, b| a - b),
        op::F32_MUL => binop!(f32, |a, b| a * b),
        op::F32_DIV => binop!(f32, |a, b| a / b),
        op::F32_MIN => binop!(f32, wasm_min_f32),
        op::F32_MAX => binop!(f32, wasm_max_f32),
        op::F32_COPYSIGN => binop!(f32, f32::copysign),
        op::F64_ABS => unop!(f64, from_f64, f64::abs),
        op::F64_NEG => unop!(f64, from_f64, |a: f64| -a),
        op::F64_CEIL => unop!(f64, from_f64, f64::ceil),
        op::F64_FLOOR => unop!(f64, from_f64, f64::floor),
        op::F64_TRUNC => unop!(f64, from_f64, f64::trunc),
        op::F64_NEAREST => unop!(f64, from_f64, nearest_f64),
        op::F64_SQRT => unop!(f64, from_f64, f64::sqrt),
        op::F64_ADD => binop!(f64, |a, b| a + b),
        op::F64_SUB => binop!(f64, |a, b| a - b),
        op::F64_MUL => binop!(f64, |a, b| a * b),
        op::F64_DIV => binop!(f64, |a, b| a / b),
        op::F64_MIN => binop!(f64, wasm_min_f64),
        op::F64_MAX => binop!(f64, wasm_max_f64),
        op::F64_COPYSIGN => binop!(f64, f64::copysign),

        op::I32_WRAP_I64 => unop!(i64, from_i32, |a: i64| a as i32),
        op::I32_TRUNC_F32_S => trapping!(1, f32, from_i32, trunc::i32_from_f32),
        op::I32_TRUNC_F32_U => trapping!(1, f32, from_u32, trunc::u32_from_f32),
        op::I32_TRUNC_F64_S => trapping!(1, f64, from_i32, trunc::i32_from_f64),
        op::I32_TRUNC_F64_U => trapping!(1, f64, from_u32, trunc::u32_from_f64),
        op::I64_EXTEND_I32_S => unop!(i32, from_i64, |a: i32| a as i64),
        op::I64_EXTEND_I32_U => unop!(u32, from_u64, |a: u32| a as u64),
        op::I64_TRUNC_F32_S => trapping!(1, f32, from_i64, trunc::i64_from_f32),
        op::I64_TRUNC_F32_U => trapping!(1, f32, from_u64, trunc::u64_from_f32),
        op::I64_TRUNC_F64_S => trapping!(1, f64, from_i64, trunc::i64_from_f64),
        op::I64_TRUNC_F64_U => trapping!(1, f64, from_u64, trunc::u64_from_f64),
        op::F32_CONVERT_I32_S => unop!(i32, from_f32, |a: i32| a as f32),
        op::F32_CONVERT_I32_U => unop!(u32, from_f32, |a: u32| a as f32),
        op::F32_CONVERT_I64_S => unop!(i64, from_f32, |a: i64| a as f32),
        op::F32_CONVERT_I64_U => unop!(u64, from_f32, |a: u64| a as f32),
        op::F32_DEMOTE_F64 => unop!(f64, from_f32, |a: f64| a as f32),
        op::F64_CONVERT_I32_S => unop!(i32, from_f64, |a: i32| a as f64),
        op::F64_CONVERT_I32_U => unop!(u32, from_f64, |a: u32| a as f64),
        op::F64_CONVERT_I64_S => unop!(i64, from_f64, |a: i64| a as f64),
        op::F64_CONVERT_I64_U => unop!(u64, from_f64, |a: u64| a as f64),
        op::F64_PROMOTE_F32 => unop!(f32, from_f64, |a: f32| a as f64),
        // Reinterpretations: the bit pattern is already in the slot.
        op::I32_REINTERPRET_F32
        | op::I64_REINTERPRET_F64
        | op::F32_REINTERPRET_I32
        | op::F64_REINTERPRET_I64 => retire!(),

        other => return Err(decode_trap(DecodeError::BadOpcode(other))),
    }
    Ok(Simple::Done)
}

/// Wasm `min`: NaN-propagating, -0 < +0.
pub(crate) fn wasm_min_f32(a: f32, b: f32) -> f32 {
    if a.is_nan() || b.is_nan() {
        f32::NAN
    } else if a == b {
        if a.is_sign_negative() {
            a
        } else {
            b
        }
    } else if a < b {
        a
    } else {
        b
    }
}

pub(crate) fn wasm_max_f32(a: f32, b: f32) -> f32 {
    if a.is_nan() || b.is_nan() {
        f32::NAN
    } else if a == b {
        if a.is_sign_positive() {
            a
        } else {
            b
        }
    } else if a > b {
        a
    } else {
        b
    }
}

pub(crate) fn wasm_min_f64(a: f64, b: f64) -> f64 {
    if a.is_nan() || b.is_nan() {
        f64::NAN
    } else if a == b {
        if a.is_sign_negative() {
            a
        } else {
            b
        }
    } else if a < b {
        a
    } else {
        b
    }
}

pub(crate) fn wasm_max_f64(a: f64, b: f64) -> f64 {
    if a.is_nan() || b.is_nan() {
        f64::NAN
    } else if a == b {
        if a.is_sign_positive() {
            a
        } else {
            b
        }
    } else if a > b {
        a
    } else {
        b
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::instance::Imports;
    use crate::instr::{write_instr, Instruction, MemArg};
    use crate::memory::LinearMemory;
    use crate::module::Module;
    use crate::types::Limits;

    /// An instance with one memory page and one global, to execute single
    /// opcodes against.
    fn instance() -> Instance {
        let mut inst =
            Instance::instantiate(Arc::new(Module::default()), Imports::new(), Default::default())
                .unwrap();
        inst.memory = Some(LinearMemory::new(Limits::new(1, None)));
        inst.globals = vec![Slot::from_i64(9)];
        inst
    }

    /// Encode `i` and execute it through [`exec_simple`]; a simple op must
    /// consume exactly its encoding.
    fn exec(
        i: Instruction,
        stack: &mut Vec<Slot>,
        locals: &mut [Slot],
        inst: &mut Instance,
    ) -> Result<Simple, Trap> {
        let mut code = Vec::new();
        write_instr(&mut code, &i);
        let mut pc = 1;
        let out = exec_simple(code[0], &code, &mut pc, stack, locals, inst);
        if let Ok(Simple::Done) = out {
            assert_eq!(pc, code.len(), "{i:?} consumed its immediates");
        }
        out
    }

    fn run1(i: Instruction, inputs: &[Slot]) -> Result<Slot, Trap> {
        let mut stack = inputs.to_vec();
        exec(i, &mut stack, &mut [], &mut instance())?;
        Ok(stack.pop().unwrap())
    }

    #[test]
    fn arithmetic_basics() {
        assert_eq!(
            run1(Instruction::I32Add, &[Slot::from_i32(2), Slot::from_i32(3)]).unwrap().i32(),
            5
        );
        assert_eq!(
            run1(Instruction::I32Sub, &[Slot::from_i32(2), Slot::from_i32(3)]).unwrap().i32(),
            -1
        );
        assert_eq!(
            run1(Instruction::I32Mul, &[Slot::from_i32(i32::MAX), Slot::from_i32(2)])
                .unwrap()
                .i32(),
            -2,
            "wrapping multiply"
        );
    }

    #[test]
    fn constants_decode_every_leb_width() {
        for v in [0, 63, -64, 64, -65, 1 << 20, i32::MIN, i32::MAX] {
            assert_eq!(run1(Instruction::I32Const(v), &[]).unwrap().i32(), v);
        }
        for v in [0, -1, 63, -64, 64, i64::MIN, i64::MAX] {
            assert_eq!(run1(Instruction::I64Const(v), &[]).unwrap().i64(), v);
        }
        assert_eq!(run1(Instruction::F32Const(-2.5), &[]).unwrap().f32(), -2.5);
        assert_eq!(run1(Instruction::F64Const(0.125), &[]).unwrap().f64(), 0.125);
    }

    #[test]
    fn division_traps() {
        assert_eq!(
            run1(Instruction::I32DivS, &[Slot::from_i32(1), Slot::from_i32(0)]),
            Err(Trap::IntegerDivideByZero)
        );
        assert_eq!(
            run1(Instruction::I32DivS, &[Slot::from_i32(i32::MIN), Slot::from_i32(-1)]),
            Err(Trap::IntegerOverflow)
        );
        assert_eq!(
            run1(Instruction::I32RemS, &[Slot::from_i32(i32::MIN), Slot::from_i32(-1)])
                .unwrap()
                .i32(),
            0,
            "rem of MIN/-1 is 0, not a trap"
        );
        assert_eq!(
            run1(Instruction::I64DivU, &[Slot::from_u64(7), Slot::from_u64(2)]).unwrap().u64(),
            3
        );
        assert_eq!(
            run1(Instruction::I64RemU, &[Slot::from_u64(7), Slot::from_u64(0)]),
            Err(Trap::IntegerDivideByZero)
        );
    }

    #[test]
    fn shifts_mask_count() {
        assert_eq!(
            run1(Instruction::I32Shl, &[Slot::from_u32(1), Slot::from_u32(33)]).unwrap().u32(),
            2,
            "shift count is modulo 32"
        );
        assert_eq!(
            run1(Instruction::I32ShrS, &[Slot::from_i32(-8), Slot::from_u32(1)]).unwrap().i32(),
            -4
        );
    }

    #[test]
    fn float_min_max_semantics() {
        let r = run1(Instruction::F32Min, &[Slot::from_f32(f32::NAN), Slot::from_f32(1.0)])
            .unwrap()
            .f32();
        assert!(r.is_nan());
        let r =
            run1(Instruction::F64Min, &[Slot::from_f64(-0.0), Slot::from_f64(0.0)]).unwrap().f64();
        assert!(r.is_sign_negative());
        let r =
            run1(Instruction::F64Max, &[Slot::from_f64(-0.0), Slot::from_f64(0.0)]).unwrap().f64();
        assert!(r.is_sign_positive());
    }

    #[test]
    fn select_picks_by_condition() {
        let mut stack = vec![Slot::from_i32(10), Slot::from_i32(20), Slot::from_i32(1)];
        exec(Instruction::Select, &mut stack, &mut [], &mut instance()).unwrap();
        assert_eq!(stack.pop().unwrap().i32(), 10);
    }

    #[test]
    fn locals_and_globals() {
        let mut inst = instance();
        let mut stack = vec![];
        let mut locals = [Slot::from_i32(5); 200];
        // Index 150 needs a two-byte LEB immediate.
        exec(Instruction::LocalGet(150), &mut stack, &mut locals, &mut inst).unwrap();
        assert_eq!(stack.last().unwrap().i32(), 5);
        exec(Instruction::LocalTee(0), &mut stack, &mut locals, &mut inst).unwrap();
        exec(Instruction::GlobalSet(0), &mut stack, &mut locals, &mut inst).unwrap();
        assert_eq!(inst.globals[0].i64(), 5);
        assert!(stack.is_empty());
    }

    #[test]
    fn memory_load_store_subwidth() {
        let mut inst = instance();
        for offset in [0, 300] {
            let a = MemArg { align: 0, offset };
            let mut stack = vec![Slot::from_u32(16), Slot::from_i32(-1)];
            exec(Instruction::I32Store8(a), &mut stack, &mut [], &mut inst).unwrap();
            assert_eq!(inst.memory().unwrap().read_bytes(16 + offset, 1).unwrap(), [0xff]);
            let mut stack = vec![Slot::from_u32(16)];
            exec(Instruction::I32Load8S(a), &mut stack, &mut [], &mut inst).unwrap();
            assert_eq!(stack.pop().unwrap().i32(), -1);
            let mut stack = vec![Slot::from_u32(16)];
            exec(Instruction::I32Load8U(a), &mut stack, &mut [], &mut inst).unwrap();
            assert_eq!(stack.pop().unwrap().i32(), 255);
        }
    }

    #[test]
    fn conversions() {
        assert_eq!(
            run1(Instruction::I32WrapI64, &[Slot::from_i64(0x1_0000_0005)]).unwrap().i32(),
            5
        );
        assert_eq!(run1(Instruction::I64ExtendI32S, &[Slot::from_i32(-1)]).unwrap().i64(), -1);
        assert_eq!(
            run1(Instruction::I64ExtendI32U, &[Slot::from_i32(-1)]).unwrap().u64(),
            0xffff_ffff
        );
        assert_eq!(run1(Instruction::I32TruncF64S, &[Slot::from_f64(-3.9)]).unwrap().i32(), -3);
        assert_eq!(
            run1(Instruction::I32TruncF64S, &[Slot::from_f64(f64::NAN)]),
            Err(Trap::InvalidConversionToInteger)
        );
        assert_eq!(
            run1(Instruction::F64ConvertI64U, &[Slot::from_u64(u64::MAX)]).unwrap().f64(),
            u64::MAX as f64
        );
    }

    #[test]
    fn reinterpret_is_identity_on_slots() {
        let s = Slot::from_f32(1.5);
        let r = run1(Instruction::I32ReinterpretF32, &[s]).unwrap();
        assert_eq!(r.u32(), 1.5f32.to_bits());
    }

    #[test]
    fn control_flow_is_not_simple() {
        let mut inst = instance();
        let out = exec(Instruction::Return, &mut vec![], &mut [], &mut inst);
        assert!(matches!(out, Ok(Simple::NotSimple)));
        assert_eq!(inst.stats().instrs_retired, 0);
    }

    #[test]
    fn simple_ops_retire_once_before_their_effect() {
        // Out of fuel: the op is charged, then traps before touching memory.
        let mut inst = instance();
        inst.set_fuel(Some(0));
        let mut stack = vec![Slot::from_u32(0), Slot::from_i32(7)];
        let out = exec(Instruction::I32Store(MemArg::default()), &mut stack, &mut [], &mut inst);
        assert_eq!(out.err(), Some(Trap::OutOfFuel));
        assert_eq!(inst.stats().instrs_retired, 1);
        assert_eq!(inst.memory().unwrap().read_bytes(0, 4).unwrap(), [0; 4]);
        assert_eq!(stack.len(), 2, "operands untouched");
        // Peak stack is the depth the op saw on entry.
        let mut inst = instance();
        let mut stack = vec![Slot::from_i32(1), Slot::from_i32(2)];
        exec(Instruction::I32Add, &mut stack, &mut [], &mut inst).unwrap();
        assert_eq!(inst.stats().peak_stack_slots, 2);
        assert_eq!(inst.stats().instrs_retired, 1);
    }

    #[test]
    fn unknown_and_truncated_code_trap_instead_of_panicking() {
        let mut inst = instance();
        let mut pc = 1;
        let out = exec_simple(0xff, &[0xff], &mut pc, &mut vec![], &mut [], &mut inst);
        assert!(matches!(out, Err(Trap::HostError(_))));
        // local.get with its LEB immediate cut off.
        let mut pc = 1;
        let out = exec_simple(
            op::LOCAL_GET,
            &[op::LOCAL_GET, 0x80],
            &mut pc,
            &mut vec![],
            &mut [],
            &mut inst,
        );
        assert!(matches!(out, Err(Trap::HostError(_))));
        assert_eq!(inst.stats().instrs_retired, 0, "nothing retired on a decode failure");
    }

    #[test]
    fn clz_ctz_popcnt() {
        assert_eq!(run1(Instruction::I32Clz, &[Slot::from_u32(1)]).unwrap().u32(), 31);
        assert_eq!(run1(Instruction::I32Ctz, &[Slot::from_u32(8)]).unwrap().u32(), 3);
        assert_eq!(run1(Instruction::I32Popcnt, &[Slot::from_u32(0xff)]).unwrap().u32(), 8);
        assert_eq!(run1(Instruction::I64Clz, &[Slot::from_u64(1)]).unwrap().u64(), 63);
    }
}
