//! The in-place bytecode interpreter (the WAMR-profile execution tier).
//!
//! Executes **directly from the raw code bytes** of the decoded module — no
//! per-function code expansion at all. The only derived structure is a small
//! control [`SideTable`] per function (offsets of matching `end`/`else` for
//! each opener), built lazily on a function's first call and cached on the
//! instance. This is how WAMR's classic interpreter keeps per-instance
//! memory near zero, which — multiplied by 400 containers — is the paper's
//! headline result.
//!
//! The loop dispatches on each opcode byte and reads its immediates inline
//! from the borrowed code (one-byte LEB128 fast case, the shared readers
//! otherwise): simple opcodes go to `numeric::exec_simple`, control opcodes
//! are handled here. Straight-line code runs in an inner loop that stays in
//! the current frame; only calls and function exits touch the frame stack.
//! No decoded [`crate::Instruction`] is built for an executed op, and
//! nothing is stored beyond the side tables.

use std::sync::Arc;

use bytelite::Bytes;

use crate::error::DecodeError;
use crate::instance::Instance;
use crate::instr::{op, read_block_type, read_instr, read_memarg, Instruction};
use crate::leb128;
use crate::module::Module;
use crate::numeric::{exec_simple, Simple};
use crate::types::BlockType;
use crate::values::{Slot, Trap, Value};

/// One control-structure record: where its `else`/`end` live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SideEntry {
    /// Byte offset of the `block`/`loop`/`if` opcode.
    pub at: u32,
    /// Byte offset of the matching `end` opcode.
    pub end: u32,
    /// Byte offset just past the matching `else` opcode (`u32::MAX` = none).
    pub else_: u32,
}

/// Per-function control side-table, sorted by opener offset.
#[derive(Debug, Clone, Default)]
pub struct SideTable {
    entries: Vec<SideEntry>,
}

impl SideTable {
    /// Scan a function body and record every opener's matching offsets.
    pub fn build(code: &[u8]) -> Result<SideTable, Trap> {
        let mut entries: Vec<SideEntry> = Vec::new();
        let mut open: Vec<usize> = Vec::new();
        let mut pos = 0usize;
        while pos < code.len() {
            let (instr, n) = read_instr(&code[pos..])
                .map_err(|e| Trap::HostError(format!("side-table scan: {e}")))?;
            match instr {
                Instruction::Block(_) | Instruction::Loop(_) | Instruction::If(_) => {
                    open.push(entries.len());
                    entries.push(SideEntry { at: pos as u32, end: 0, else_: u32::MAX });
                }
                Instruction::Else => {
                    let idx = *open.last().expect("validated: else inside if");
                    entries[idx].else_ = (pos + 1) as u32;
                }
                Instruction::End => {
                    if let Some(idx) = open.pop() {
                        entries[idx].end = pos as u32;
                    }
                    // The final `end` (empty stack) closes the function.
                }
                _ => {}
            }
            pos += n;
        }
        Ok(SideTable { entries })
    }

    /// Look up the entry for the opener at byte offset `at`.
    #[inline]
    pub fn lookup(&self, at: u32) -> SideEntry {
        let i =
            self.entries.binary_search_by_key(&at, |e| e.at).expect("every opener has an entry");
        self.entries[i]
    }

    /// Approximate resident size — what the WAMR profile charges per
    /// function for control metadata.
    pub fn memory_bytes(&self) -> u64 {
        (self.entries.len() * std::mem::size_of::<SideEntry>()) as u64
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct Label {
    is_loop: bool,
    /// Offset of the matching `end` opcode (function end for the implicit
    /// outermost label).
    end_pc: usize,
    /// Loop continuation: offset just past the `loop` opcode+blocktype.
    cont_pc: usize,
    /// Absolute operand-stack height under this label's params.
    height: usize,
    /// Values a branch to this label carries.
    br_arity: usize,
}

struct Frame {
    code: Bytes,
    side: Arc<SideTable>,
    pc: usize,
    locals: Vec<Slot>,
    labels: Vec<Label>,
    /// Operand-stack height at function entry (after args were consumed).
    base: usize,
    results: usize,
}

/// Block signature sizes (params, results) for a block type.
fn block_arity(module: &Module, bt: BlockType) -> (usize, usize) {
    match bt {
        BlockType::Empty => (0, 0),
        BlockType::Value(_) => (0, 1),
        BlockType::Func(idx) => {
            let ft = &module.types[idx as usize];
            (ft.params.len(), ft.results.len())
        }
    }
}

/// Get or lazily build the side table for a local function.
fn side_table(inst: &mut Instance, local_idx: usize) -> Result<Arc<SideTable>, Trap> {
    if let Some(t) = &inst.side_tables[local_idx] {
        return Ok(Arc::clone(t));
    }
    let code = inst.module.bodies[local_idx].code.clone();
    let table = Arc::new(SideTable::build(&code)?);
    inst.stats.side_table_bytes += table.memory_bytes();
    inst.side_tables[local_idx] = Some(Arc::clone(&table));
    Ok(table)
}

/// Most recycled buffers kept per pool. Deep recursion can pop hundreds of
/// frames at once; keeping a bounded stash is enough to make steady-state
/// call chains allocation-free without hoarding memory.
const POOL_CAP: usize = 64;

fn make_frame(
    inst: &mut Instance,
    func_idx: u32,
    args: &[Slot],
    base: usize,
) -> Result<Frame, Trap> {
    let imported = inst.module.num_imported_funcs();
    let local_idx = (func_idx - imported) as usize;
    let body = &inst.module.bodies[local_idx];
    let ft = inst.module.func_type(func_idx).expect("validated");
    let results = ft.results.len();
    let mut locals = inst.locals_pool.pop().unwrap_or_default();
    locals.clear();
    locals.extend_from_slice(args);
    locals.resize(locals.len() + body.local_count() as usize, Slot(0));
    let code = body.code.clone();
    let side = side_table(inst, local_idx)?;
    let func_label = Label {
        is_loop: false,
        end_pc: code.len().saturating_sub(1),
        cont_pc: 0,
        height: base,
        br_arity: results,
    };
    let mut labels = inst.labels_pool.pop().unwrap_or_default();
    labels.clear();
    labels.push(func_label);
    Ok(Frame { code, side, pc: 0, locals, labels, base, results })
}

/// Return a popped frame's buffers to the instance pools for reuse.
fn recycle_frame(inst: &mut Instance, frame: Frame) {
    if inst.locals_pool.len() < POOL_CAP {
        inst.locals_pool.push(frame.locals);
    }
    if inst.labels_pool.len() < POOL_CAP {
        inst.labels_pool.push(frame.labels);
    }
}

/// Move the top `arity` stack slots down to `dest` and drop everything in
/// between — the branch/return stack adjustment, without the temporary
/// vector a `split_off` would allocate.
#[inline]
fn shift_down(stack: &mut Vec<Slot>, dest: usize, arity: usize) {
    let src = stack.len() - arity;
    if src > dest {
        stack.copy_within(src.., dest);
    }
    stack.truncate(dest + arity);
}

/// Invoke `func_idx` with typed arguments through the in-place interpreter.
pub(crate) fn invoke(
    inst: &mut Instance,
    func_idx: u32,
    args: &[Value],
) -> Result<Vec<Value>, Trap> {
    let imported = inst.module.num_imported_funcs();
    if func_idx < imported {
        return inst.call_host(func_idx, args);
    }
    let result_types = inst.module.func_type(func_idx).expect("validated").results.clone();

    // Borrow the instance's reusable operand stack for this invocation so
    // repeated invokes share one allocation (host functions cannot re-enter
    // the interpreter, so the stack is never borrowed twice).
    let mut stack = std::mem::take(&mut inst.value_stack);
    stack.clear();
    stack.reserve(64);
    let outcome = run(inst, &mut stack, func_idx, args);
    let result = outcome.map(|()| {
        result_types.iter().zip(stack.drain(..)).map(|(t, s)| Value::from_slot(s, *t)).collect()
    });
    stack.clear();
    inst.value_stack = stack;
    result
}

/// A code byte sequence that validation promised but execution could not
/// read — a typed trap rather than a panic.
pub(crate) fn decode_trap(e: DecodeError) -> Trap {
    Trap::HostError(format!("decode during execution: {e}"))
}

/// Read a `u32` LEB128 immediate at `*pc` and advance past it. One-byte
/// encodings (every index below 128) skip the general reader.
#[inline(always)]
pub(crate) fn imm_u32(code: &[u8], pc: &mut usize) -> Result<u32, Trap> {
    if let Some(&b) = code.get(*pc) {
        if b < 0x80 {
            *pc += 1;
            return Ok(b as u32);
        }
    }
    imm_slow(code, pc, leb128::read_u32)
}

/// Read an `i32` SLEB128 immediate (one-byte fast case: −64..=63).
#[inline(always)]
pub(crate) fn imm_i32(code: &[u8], pc: &mut usize) -> Result<i32, Trap> {
    if let Some(&b) = code.get(*pc) {
        if b < 0x80 {
            *pc += 1;
            // Sign-extend the 7-bit payload.
            return Ok(((b << 1) as i8 >> 1) as i32);
        }
    }
    imm_slow(code, pc, leb128::read_i32)
}

/// Read an `i64` SLEB128 immediate (one-byte fast case: −64..=63).
#[inline(always)]
pub(crate) fn imm_i64(code: &[u8], pc: &mut usize) -> Result<i64, Trap> {
    if let Some(&b) = code.get(*pc) {
        if b < 0x80 {
            *pc += 1;
            return Ok(((b << 1) as i8 >> 1) as i64);
        }
    }
    imm_slow(code, pc, leb128::read_i64)
}

/// Read a memarg immediate and return its offset (the alignment hint does
/// not affect execution). Fast case: both fields one byte.
#[inline(always)]
pub(crate) fn imm_memarg_offset(code: &[u8], pc: &mut usize) -> Result<u32, Trap> {
    if let Some(&[align, offset]) = code.get(*pc..*pc + 2) {
        if align < 0x80 && offset < 0x80 {
            *pc += 2;
            return Ok(offset as u32);
        }
    }
    imm_slow(code, pc, read_memarg).map(|m| m.offset)
}

/// The general path of the immediate readers: one of the shared decoders,
/// kept out of line so the dispatch loop stays small.
#[inline(never)]
fn imm_slow<T>(
    code: &[u8],
    pc: &mut usize,
    read: impl Fn(&[u8]) -> Result<(T, usize), DecodeError>,
) -> Result<T, Trap> {
    let (v, n) = read(&code[*pc..]).map_err(decode_trap)?;
    *pc += n;
    Ok(v)
}

/// Retire one executed op: burn its fuel, service the epoch watchdog, and
/// record the operand-stack depth it saw. Every executed op calls this
/// exactly once, after its immediates are read and before it has any
/// effect — the single accounting point of the in-place tier.
#[inline(always)]
pub(crate) fn retire(inst: &mut Instance, depth: usize) -> Result<(), Trap> {
    inst.burn(1)?;
    if depth as u64 > inst.stats.peak_stack_slots {
        inst.stats.peak_stack_slots = depth as u64;
    }
    Ok(())
}

/// The interpreter main loop, operating on a borrowed operand stack.
fn run(
    inst: &mut Instance,
    stack: &mut Vec<Slot>,
    func_idx: u32,
    args: &[Value],
) -> Result<(), Trap> {
    let arg_slots: Vec<Slot> = args.iter().map(|v| v.to_slot()).collect();
    let mut frames = vec![make_frame(inst, func_idx, &arg_slots, 0)?];

    // One iteration per frame activation: entry, or resumption after a call.
    'frame: while let Some(frame) = frames.last_mut() {
        let code: &[u8] = &frame.code;
        let side: &SideTable = &frame.side;
        let locals = &mut frame.locals;
        let labels = &mut frame.labels;
        let mut pc = frame.pc;

        // Straight-line execution within this frame. Leaves by `continue
        // 'frame` on a call, or by `break` once `pc` is past the final
        // `end` (fall-through, `return`, or a branch to the function label).
        loop {
            let at = pc;
            let opcode = *code.get(pc).ok_or_else(|| decode_trap(DecodeError::UnexpectedEof))?;
            pc += 1;
            if let Simple::Done = exec_simple(opcode, code, &mut pc, stack, locals, inst)? {
                continue;
            }
            match opcode {
                op::UNREACHABLE => {
                    retire(inst, stack.len())?;
                    return Err(Trap::Unreachable);
                }
                op::BLOCK | op::LOOP | op::IF => {
                    let (bt, n) = read_block_type(&code[pc..]).map_err(decode_trap)?;
                    pc += n;
                    retire(inst, stack.len())?;
                    let (params, results) = block_arity(&inst.module, bt);
                    let entry = side.lookup(at as u32);
                    let mut label = Label {
                        is_loop: false,
                        end_pc: entry.end as usize,
                        cont_pc: 0,
                        height: 0,
                        br_arity: results,
                    };
                    if opcode == op::LOOP {
                        label.is_loop = true;
                        label.cont_pc = pc;
                        label.br_arity = params;
                    } else if opcode == op::IF && stack.pop().expect("validated").i32() == 0 {
                        if entry.else_ == u32::MAX {
                            // No else: skip the whole construct.
                            pc = entry.end as usize + 1;
                            continue;
                        }
                        pc = entry.else_ as usize;
                    }
                    label.height = stack.len() - params;
                    labels.push(label);
                }
                op::ELSE => {
                    // End of the then-branch: jump to the matching `end`.
                    retire(inst, stack.len())?;
                    pc = labels.last().expect("validated: else has label").end_pc;
                }
                op::END => {
                    retire(inst, stack.len())?;
                    labels.pop();
                    if pc >= code.len() {
                        break;
                    }
                }
                op::BR | op::BR_IF => {
                    let depth = imm_u32(code, &mut pc)?;
                    retire(inst, stack.len())?;
                    if opcode == op::BR || stack.pop().expect("validated").i32() != 0 {
                        pc = branch(labels, stack, depth);
                        if pc >= code.len() {
                            break;
                        }
                    }
                }
                op::BR_TABLE => {
                    // Targets are read in place: skip to the selected entry
                    // (or to the default past the last one) and read it.
                    let count = imm_u32(code, &mut pc)?;
                    retire(inst, stack.len())?;
                    let idx = stack.pop().expect("validated").u32();
                    for _ in 0..idx.min(count) {
                        imm_u32(code, &mut pc)?;
                    }
                    let depth = imm_u32(code, &mut pc)?;
                    pc = branch(labels, stack, depth);
                    if pc >= code.len() {
                        break;
                    }
                }
                op::RETURN => {
                    retire(inst, stack.len())?;
                    break;
                }
                op::CALL | op::CALL_INDIRECT => {
                    let f = if opcode == op::CALL {
                        let f = imm_u32(code, &mut pc)?;
                        retire(inst, stack.len())?;
                        f
                    } else {
                        let type_idx = imm_u32(code, &mut pc)?;
                        imm_u32(code, &mut pc)?; // table index (always 0 in the MVP)
                        retire(inst, stack.len())?;
                        let elem = stack.pop().expect("validated").u32() as usize;
                        resolve_indirect(inst, type_idx, elem)?
                    };
                    frame.pc = pc;
                    call(inst, &mut frames, stack, f)?;
                    continue 'frame;
                }
                other => unreachable!("simple opcode {other:#04x} fell through"),
            }
        }

        // Function epilogue: results move down to the frame's base.
        let done = frames.pop().expect("frame being popped");
        shift_down(stack, done.base, done.results);
        recycle_frame(inst, done);
    }

    Ok(())
}

/// Resolve a `call_indirect` target and check its signature.
fn resolve_indirect(inst: &Instance, type_idx: u32, elem: usize) -> Result<u32, Trap> {
    let entry = inst.table.get(elem).ok_or(Trap::TableOutOfBounds)?;
    let f = entry.ok_or(Trap::UninitializedElement)?;
    let expected = &inst.module.types[type_idx as usize];
    let actual = inst.module.func_type(f).ok_or(Trap::UninitializedElement)?;
    if actual != expected {
        return Err(Trap::IndirectCallTypeMismatch);
    }
    Ok(f)
}

/// Perform a branch to `depth` within the current frame's labels; returns
/// the new `pc`.
fn branch(labels: &mut Vec<Label>, stack: &mut Vec<Slot>, depth: u32) -> usize {
    let li = labels.len() - 1 - depth as usize;
    let label = labels[li];
    shift_down(stack, label.height, label.br_arity);
    if label.is_loop {
        labels.truncate(li + 1);
        label.cont_pc
    } else {
        labels.truncate(li);
        label.end_pc + 1
    }
}

/// Call a function (host or Wasm) from inside the interpreter loop.
fn call(
    inst: &mut Instance,
    frames: &mut Vec<Frame>,
    stack: &mut Vec<Slot>,
    func_idx: u32,
) -> Result<(), Trap> {
    let imported = inst.module.num_imported_funcs();
    if func_idx < imported {
        // Host calls need the typed signature; clone it once here (the hot
        // Wasm→Wasm path below avoids the allocation entirely).
        let ft = inst.module.func_type(func_idx).expect("validated").clone();
        let split = stack.len() - ft.params.len();
        let args: Vec<Value> =
            ft.params.iter().zip(&stack[split..]).map(|(t, s)| Value::from_slot(*s, *t)).collect();
        stack.truncate(split);
        let results = inst.call_host(func_idx, &args)?;
        if results.len() != ft.results.len() {
            return Err(Trap::HostError(format!(
                "host function returned {} values, expected {}",
                results.len(),
                ft.results.len()
            )));
        }
        stack.extend(results.into_iter().map(Value::to_slot));
        Ok(())
    } else {
        if frames.len() >= inst.config.max_call_depth {
            return Err(Trap::StackOverflow);
        }
        let n_params = inst.module.func_type(func_idx).expect("validated").params.len();
        let split = stack.len() - n_params;
        // Arguments become the callee's locals directly from the stack top;
        // make_frame copies them into a pooled buffer, no temporary vector.
        let frame = make_frame(inst, func_idx, &stack[split..], split)?;
        stack.truncate(split);
        frames.push(frame);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::instance::{Imports, Instance, InstanceConfig};
    use crate::types::{FuncType, ValType};

    fn instantiate(b: ModuleBuilder) -> Instance {
        Instance::instantiate(Arc::new(b.build()), Imports::new(), InstanceConfig::default())
            .unwrap()
    }

    #[test]
    fn side_table_structure() {
        // block / if / else / end / end / end(function)
        let mut b = ModuleBuilder::new();
        b.func(FuncType::new(vec![ValType::I32], vec![ValType::I32]), |f| {
            f.block(BlockType::Value(ValType::I32), |f| {
                f.local_get(0);
                f.if_else(
                    BlockType::Value(ValType::I32),
                    |f| {
                        f.i32_const(1);
                    },
                    |f| {
                        f.i32_const(2);
                    },
                );
            });
        });
        let m = b.build();
        let table = SideTable::build(&m.bodies[0].code).unwrap();
        assert_eq!(table.len(), 2);
        let code = &m.bodies[0].code;
        let outer = table.lookup(0);
        assert_eq!(code[outer.end as usize], 0x0b);
        assert_eq!(outer.else_, u32::MAX);
        assert!(table.memory_bytes() > 0);
    }

    #[test]
    fn factorial_loop() {
        let mut b = ModuleBuilder::new();
        let f = b.func(FuncType::new(vec![ValType::I32], vec![ValType::I32]), |f| {
            let acc = f.local(ValType::I32);
            f.i32_const(1).local_set(acc);
            f.block(BlockType::Empty, |f| {
                f.loop_(BlockType::Empty, |f| {
                    f.local_get(0).op(Instruction::I32Eqz).br_if(1);
                    f.local_get(acc).local_get(0).op(Instruction::I32Mul).local_set(acc);
                    f.local_get(0).i32_const(1).op(Instruction::I32Sub).local_set(0);
                    f.br(0);
                });
            });
            f.local_get(acc);
        });
        b.export_func("fact", f);
        let mut inst = instantiate(b);
        let out = inst.invoke("fact", &[Value::I32(6)]).unwrap();
        assert_eq!(out, vec![Value::I32(720)]);
        assert!(inst.stats().instrs_retired > 30);
        assert!(inst.stats().lowered_bytes == 0, "in-place tier compiles nothing");
        assert!(inst.stats().side_table_bytes > 0);
    }

    #[test]
    fn recursive_fibonacci() {
        let mut b = ModuleBuilder::new();
        let fib_sig = FuncType::new(vec![ValType::I32], vec![ValType::I32]);
        // Declared index of the (only) local function is 0.
        let fib = b.func(fib_sig, |f| {
            f.local_get(0).i32_const(2).op(Instruction::I32LtS);
            f.if_else(
                BlockType::Value(ValType::I32),
                |f| {
                    f.local_get(0);
                },
                |f| {
                    f.local_get(0).i32_const(1).op(Instruction::I32Sub).call(0);
                    f.local_get(0).i32_const(2).op(Instruction::I32Sub).call(0);
                    f.op(Instruction::I32Add);
                },
            );
        });
        b.export_func("fib", fib);
        let mut inst = instantiate(b);
        assert_eq!(inst.invoke("fib", &[Value::I32(10)]).unwrap(), vec![Value::I32(55)]);
    }

    #[test]
    fn br_table_dispatch() {
        let mut b = ModuleBuilder::new();
        let f = b.func(FuncType::new(vec![ValType::I32], vec![ValType::I32]), |f| {
            f.block(BlockType::Value(ValType::I32), |f| {
                f.block(BlockType::Empty, |f| {
                    f.block(BlockType::Empty, |f| {
                        // Arms 0 and 1 target the two empty blocks; the
                        // default reuses arm 1.
                        f.local_get(0).br_table(vec![0, 1], 1);
                    });
                    // case 0
                    f.i32_const(100).br(1);
                });
                // case 1 and default
                f.i32_const(200);
            });
        });
        b.export_func("dispatch", f);
        let mut inst = instantiate(b);
        assert_eq!(inst.invoke("dispatch", &[Value::I32(0)]).unwrap(), vec![Value::I32(100)]);
        assert_eq!(inst.invoke("dispatch", &[Value::I32(1)]).unwrap(), vec![Value::I32(200)]);
        assert_eq!(inst.invoke("dispatch", &[Value::I32(9)]).unwrap(), vec![Value::I32(200)]);
    }

    #[test]
    fn early_return() {
        let mut b = ModuleBuilder::new();
        let f = b.func(FuncType::new(vec![ValType::I32], vec![ValType::I32]), |f| {
            f.local_get(0);
            f.if_else(
                BlockType::Empty,
                |f| {
                    f.i32_const(1).return_();
                },
                |_| {},
            );
            f.i32_const(0);
        });
        b.export_func("sign", f);
        let mut inst = instantiate(b);
        assert_eq!(inst.invoke("sign", &[Value::I32(5)]).unwrap(), vec![Value::I32(1)]);
        assert_eq!(inst.invoke("sign", &[Value::I32(0)]).unwrap(), vec![Value::I32(0)]);
    }

    #[test]
    fn br_to_function_label_returns() {
        let mut b = ModuleBuilder::new();
        let f = b.func(FuncType::new(vec![], vec![ValType::I32]), |f| {
            f.i32_const(9).br(0);
        });
        b.export_func("f", f);
        let mut inst = instantiate(b);
        assert_eq!(inst.invoke("f", &[]).unwrap(), vec![Value::I32(9)]);
    }

    #[test]
    fn call_indirect_through_table() {
        let mut b = ModuleBuilder::new();
        let sig = FuncType::new(vec![ValType::I32], vec![ValType::I32]);
        let double = b.func(sig.clone(), |f| {
            f.local_get(0).i32_const(2).op(Instruction::I32Mul);
        });
        let triple = b.func(sig.clone(), |f| {
            f.local_get(0).i32_const(3).op(Instruction::I32Mul);
        });
        b.table(2, Some(2));
        b.elem(0, vec![double, triple]);
        let sig_idx_holder = sig;
        let caller =
            b.func(FuncType::new(vec![ValType::I32, ValType::I32], vec![ValType::I32]), move |f| {
                let _ = &sig_idx_holder;
                f.local_get(0); // argument
                f.local_get(1); // table index
                f.call_indirect(0);
            });
        b.export_func("apply", caller);
        let mut inst = instantiate(b);
        assert_eq!(
            inst.invoke("apply", &[Value::I32(21), Value::I32(0)]).unwrap(),
            vec![Value::I32(42)]
        );
        assert_eq!(
            inst.invoke("apply", &[Value::I32(14), Value::I32(1)]).unwrap(),
            vec![Value::I32(42)]
        );
        // Out-of-bounds table index traps.
        assert_eq!(
            inst.invoke("apply", &[Value::I32(1), Value::I32(7)]),
            Err(Trap::TableOutOfBounds)
        );
    }

    #[test]
    fn unreachable_traps() {
        let mut b = ModuleBuilder::new();
        let f = b.func(FuncType::new(vec![], vec![]), |f| {
            f.op(Instruction::Unreachable);
        });
        b.export_func("boom", f);
        let mut inst = instantiate(b);
        assert_eq!(inst.invoke("boom", &[]), Err(Trap::Unreachable));
    }

    #[test]
    fn deep_recursion_overflows() {
        let mut b = ModuleBuilder::new();
        let f = b.func(FuncType::new(vec![], vec![]), |f| {
            f.call(0);
        });
        b.export_func("recur", f);
        let mut inst = instantiate(b);
        assert_eq!(inst.invoke("recur", &[]), Err(Trap::StackOverflow));
    }

    #[test]
    fn side_table_cached_across_calls() {
        let mut b = ModuleBuilder::new();
        let f = b.func(FuncType::new(vec![], vec![ValType::I32]), |f| {
            f.block(BlockType::Value(ValType::I32), |f| {
                f.i32_const(3);
            });
        });
        b.export_func("f", f);
        let mut inst = instantiate(b);
        inst.invoke("f", &[]).unwrap();
        let bytes_once = inst.stats().side_table_bytes;
        inst.invoke("f", &[]).unwrap();
        assert_eq!(inst.stats().side_table_bytes, bytes_once, "built once, reused");
    }
}
