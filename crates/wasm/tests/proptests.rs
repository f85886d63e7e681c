//! Property-based tests for the Wasm core (on the offline `simkernel::prop`
//! harness):
//!
//! * LEB128 round-trips for the full value ranges;
//! * instruction encode/decode round-trips over arbitrary instructions;
//! * module encode→decode round-trips over arbitrary structured modules;
//! * **tier equivalence**: random straight-line and structured programs
//!   produce identical results on the in-place interpreter and the lowered
//!   executor — the property that makes the engine comparison meaningful;
//! * **accounting parity**: on programs with multi-byte immediates and
//!   every control construct, the in-place tier's fuel and epoch traps land
//!   exactly where its unlimited run's retired count predicts.

use std::sync::Arc;

use simkernel::prop::check;
use simkernel::rng::SplitMix64;
use wasm_core::instr::{read_instr, write_instr, BrTableData, MemArg};
use wasm_core::module::{ConstExpr, DataSegment, Export, ExportDesc, FuncBody, Global};
use wasm_core::types::{BlockType, GlobalType, Limits, MemoryType};
use wasm_core::{
    decode_module, encode_module, leb128, validate_module, EpochClock, EpochConfig, ExecTier,
    FuncType, Imports, Instance, InstanceConfig, Instruction as I, Module, ModuleBuilder, Trap,
    ValType, Value,
};

#[test]
fn leb128_u32_roundtrip() {
    check("leb128_u32_roundtrip", 256, |g| {
        let v = g.next_u32();
        let mut buf = Vec::new();
        leb128::write_u32(&mut buf, v);
        let (got, n) = leb128::read_u32(&buf).unwrap();
        assert_eq!(got, v);
        assert_eq!(n, buf.len());
    });
    // Edge values the uniform stream is unlikely to hit.
    for v in [0u32, 1, 127, 128, u32::MAX] {
        let mut buf = Vec::new();
        leb128::write_u32(&mut buf, v);
        assert_eq!(leb128::read_u32(&buf).unwrap(), (v, buf.len()));
    }
}

#[test]
fn leb128_i64_roundtrip() {
    check("leb128_i64_roundtrip", 256, |g| {
        let v = g.next_i64();
        let mut buf = Vec::new();
        leb128::write_i64(&mut buf, v);
        let (got, n) = leb128::read_i64(&buf).unwrap();
        assert_eq!(got, v);
        assert_eq!(n, buf.len());
    });
    for v in [0i64, -1, 63, 64, -64, -65, i64::MIN, i64::MAX] {
        let mut buf = Vec::new();
        leb128::write_i64(&mut buf, v);
        assert_eq!(leb128::read_i64(&buf).unwrap(), (v, buf.len()));
    }
}

#[test]
fn leb128_rejects_truncation() {
    check("leb128_rejects_truncation", 256, |g| {
        let v = g.range_u64(128, u32::MAX as u64 + 1) as u32;
        let mut buf = Vec::new();
        leb128::write_u32(&mut buf, v);
        buf.pop();
        assert!(leb128::read_u32(&buf).is_err());
    });
}

fn gen_instruction(g: &mut SplitMix64) -> I {
    match g.index(26) {
        0 => I::Unreachable,
        1 => I::Nop,
        2 => I::Drop,
        3 => I::Select,
        4 => I::Return,
        5 => I::End,
        6 => I::MemorySize,
        7 => I::MemoryGrow,
        8 => I::Br(g.next_u32()),
        9 => I::BrIf(g.next_u32()),
        10 => I::Call(g.next_u32()),
        11 => I::LocalGet(g.next_u32()),
        12 => I::GlobalSet(g.next_u32()),
        13 => I::I32Const(g.next_i32()),
        14 => I::I64Const(g.next_i64()),
        15 => I::F32Const(g.next_f32()),
        16 => I::F64Const(g.next_f64()),
        17 => I::I32Load(MemArg { align: g.next_u32(), offset: g.next_u32() }),
        18 => I::I64Store(MemArg { align: g.next_u32(), offset: g.next_u32() }),
        19 => {
            let targets = (0..g.index(8)).map(|_| g.next_u32()).collect();
            I::BrTable(Box::new(BrTableData { targets, default: g.next_u32() }))
        }
        20 => I::Block(*g.choose(&[
            BlockType::Empty,
            BlockType::Value(ValType::I32),
            BlockType::Value(ValType::F64),
        ])),
        21 => I::I32Add,
        22 => I::I64Rotr,
        23 => I::F32Sqrt,
        24 => I::F64Copysign,
        25 => I::I32TruncF64U,
        _ => I::F64ReinterpretI64,
    }
}

#[test]
fn instruction_roundtrip() {
    check("instruction_roundtrip", 512, |g| {
        let i = gen_instruction(g);
        let mut buf = Vec::new();
        write_instr(&mut buf, &i);
        let (got, n) = read_instr(&buf).unwrap();
        assert_eq!(n, buf.len());
        // NaN payloads survive bitwise; compare via re-encoding.
        let mut buf2 = Vec::new();
        write_instr(&mut buf2, &got);
        assert_eq!(buf, buf2);
    });
}

fn gen_valtype(g: &mut SplitMix64) -> ValType {
    *g.choose(&[ValType::I32, ValType::I64, ValType::F32, ValType::F64])
}

fn gen_functype(g: &mut SplitMix64) -> FuncType {
    let params = (0..g.index(5)).map(|_| gen_valtype(g)).collect();
    let results = (0..g.index(2)).map(|_| gen_valtype(g)).collect();
    FuncType::new(params, results)
}

/// An arbitrary structurally-plausible module (not necessarily valid — the
/// round-trip property only needs well-formed encoding).
fn gen_module(g: &mut SplitMix64) -> Module {
    let mut m = Module::default();
    let ntypes = 1 + g.index(3) as u32;
    m.types = (0..ntypes).map(|_| gen_functype(g)).collect();
    // One function per type, with a trivial body.
    for t in 0..ntypes {
        m.funcs.push(t);
        m.bodies.push(FuncBody {
            locals: vec![(2, ValType::I32)],
            code: bytelite::Bytes::from_static(&[0x00, 0x0b]), // unreachable; end
        });
    }
    if g.next_bool() {
        let data: Vec<u8> = (0..g.index(64)).map(|_| g.next_u32() as u8).collect();
        m.memories.push(MemoryType { limits: Limits::new(1, Some(4)) });
        m.data.push(DataSegment {
            memory: 0,
            offset: ConstExpr::I32(0),
            bytes: bytelite::Bytes::from(data),
        });
    }
    for i in 0..g.index(3) {
        m.globals.push(Global {
            ty: GlobalType { value: ValType::I64, mutable: g.next_bool() },
            init: ConstExpr::I64(g.next_u32() as u16 as i64),
        });
        m.exports.push(Export { name: format!("g{i}"), desc: ExportDesc::Global(i as u32) });
    }
    m
}

#[test]
fn module_roundtrip() {
    check("module_roundtrip", 64, |g| {
        let m = gen_module(g);
        let bytes = encode_module(&m);
        let back = decode_module(bytes).unwrap();
        assert_eq!(back, m);
    });
}

/// A random straight-line arithmetic program over two i32 params: a list of
/// (operation, constant) steps folded onto an accumulator.
#[derive(Debug, Clone)]
enum Op {
    Add(i32),
    Sub(i32),
    Mul(i32),
    Xor(i32),
    RotlParam1,
    AddParam0,
    ShrU(u32),
    IfPositiveNegate,
}

fn gen_program(g: &mut SplitMix64) -> Vec<Op> {
    let len = 1 + g.index(39);
    (0..len)
        .map(|_| match g.index(8) {
            0 => Op::Add(g.next_i32()),
            1 => Op::Sub(g.next_i32()),
            2 => Op::Mul(g.next_i32()),
            3 => Op::Xor(g.next_i32()),
            4 => Op::RotlParam1,
            5 => Op::AddParam0,
            6 => Op::ShrU(g.range_u64(0, 31) as u32),
            _ => Op::IfPositiveNegate,
        })
        .collect()
}

fn build_program_module(prog: &[Op]) -> Module {
    let mut b = ModuleBuilder::new();
    let f = b.func(FuncType::new(vec![ValType::I32, ValType::I32], vec![ValType::I32]), |f| {
        let acc = f.local(ValType::I32);
        f.local_get(0).local_set(acc);
        for op in prog {
            match op {
                Op::Add(c) => {
                    f.local_get(acc).i32_const(*c).op(I::I32Add).local_set(acc);
                }
                Op::Sub(c) => {
                    f.local_get(acc).i32_const(*c).op(I::I32Sub).local_set(acc);
                }
                Op::Mul(c) => {
                    f.local_get(acc).i32_const(*c).op(I::I32Mul).local_set(acc);
                }
                Op::Xor(c) => {
                    f.local_get(acc).i32_const(*c).op(I::I32Xor).local_set(acc);
                }
                Op::RotlParam1 => {
                    f.local_get(acc).local_get(1).op(I::I32Rotl).local_set(acc);
                }
                Op::AddParam0 => {
                    f.local_get(acc).local_get(0).op(I::I32Add).local_set(acc);
                }
                Op::ShrU(c) => {
                    f.local_get(acc).i32_const(*c as i32).op(I::I32ShrU).local_set(acc);
                }
                Op::IfPositiveNegate => {
                    f.local_get(acc).i32_const(0).op(I::I32GtS);
                    f.if_else(
                        BlockType::Empty,
                        |f| {
                            f.i32_const(0).local_get(acc).op(I::I32Sub).local_set(acc);
                        },
                        |_| {},
                    );
                }
            }
        }
        f.local_get(acc);
    });
    b.export_func("run", f);
    b.build()
}

/// Reference semantics in plain Rust.
fn reference_eval(prog: &[Op], p0: i32, p1: i32) -> i32 {
    let mut acc = p0;
    for op in prog {
        acc = match op {
            Op::Add(c) => acc.wrapping_add(*c),
            Op::Sub(c) => acc.wrapping_sub(*c),
            Op::Mul(c) => acc.wrapping_mul(*c),
            Op::Xor(c) => acc ^ c,
            Op::RotlParam1 => acc.rotate_left(p1 as u32 & 31),
            Op::AddParam0 => acc.wrapping_add(p0),
            Op::ShrU(c) => ((acc as u32) >> c) as i32,
            Op::IfPositiveNegate => {
                if acc > 0 {
                    0i32.wrapping_sub(acc)
                } else {
                    acc
                }
            }
        };
    }
    acc
}

#[test]
fn tiers_match_each_other_and_the_reference() {
    check("tiers_match_each_other_and_the_reference", 96, |g| {
        let prog = gen_program(g);
        let p0 = g.next_i32();
        let p1 = g.next_i32();
        let module = Arc::new(build_program_module(&prog));
        validate_module(&module).unwrap();
        let expected = reference_eval(&prog, p0, p1);
        for tier in [ExecTier::InPlace, ExecTier::Lowered] {
            let mut inst = Instance::instantiate(
                Arc::clone(&module),
                Imports::new(),
                InstanceConfig { tier, fuel: Some(1_000_000), ..Default::default() },
            )
            .unwrap();
            let out = inst.invoke("run", &[Value::I32(p0), Value::I32(p1)]).unwrap();
            assert_eq!(&out[..], &[Value::I32(expected)][..], "{tier:?}");
        }
    });
}

#[test]
fn encode_decode_of_generated_programs() {
    check("encode_decode_of_generated_programs", 96, |g| {
        let prog = gen_program(g);
        let module = build_program_module(&prog);
        let bytes = encode_module(&module);
        let back = decode_module(bytes).unwrap();
        assert_eq!(back, module);
    });
}

/// One step of an accounting-parity program, folded onto an accumulator.
/// Immediates are drawn so their LEB128 encodings are usually multi-byte:
/// local indices ≥ 128, constants outside −64..=63, memarg offsets ≥ 128.
#[derive(Debug, Clone)]
enum Step {
    /// acc += c
    AddConst(i32),
    /// acc ^= c, round-tripped through local `idx`.
    ViaLocal(u32, i32),
    /// Store acc at `addr + offset` and load it back, scaled.
    Memory(i32, u32),
    /// acc = wrap(extend(acc) * c) with an i64 constant.
    Wide(i64),
    /// Run acc = acc * 3 + 1 `n` times in a block/loop with counter `ctr`.
    Loop(i32, u32),
    /// if acc < 0 { acc + a } else { acc ^ b }.
    IfElse(i32, i32),
    /// if acc is odd { acc - c } (an `if` without `else`).
    IfOdd(i32),
    /// `br_table` on acc & 7 over three cases and an exit; indices past the
    /// target list take the default.
    BrTable(Vec<u32>, u32, [i32; 3]),
    /// acc = helper(acc, c), directly or through the table.
    Call(i32, bool),
    /// Return acc early when acc % 16 == 0.
    ReturnIfRound,
}

/// First declared extra local; every index at or past 128 needs two bytes.
const WIDE_LOCALS: u32 = 140;

fn wide_i32(g: &mut SplitMix64) -> i32 {
    match g.index(3) {
        0 => g.next_i32(),
        1 => g.range_i64(64, 1 << 20) as i32,
        _ => -(g.range_i64(65, 1 << 20) as i32),
    }
}

fn gen_steps(g: &mut SplitMix64) -> Vec<Step> {
    (0..1 + g.index(24))
        .map(|_| match g.index(10) {
            0 => Step::AddConst(wide_i32(g)),
            1 => Step::ViaLocal(2 + g.range_u64(120, WIDE_LOCALS as u64) as u32, wide_i32(g)),
            2 => Step::Memory(g.index(1024) as i32 * 4, g.range_u64(128, 8192) as u32),
            3 => Step::Wide(g.next_i64()),
            // The counter must not be the accumulator (the last local).
            4 => Step::Loop(g.index(6) as i32, 2 + g.range_u64(126, WIDE_LOCALS as u64 - 1) as u32),
            5 => Step::IfElse(wide_i32(g), wide_i32(g)),
            6 => Step::IfOdd(wide_i32(g)),
            7 => {
                let targets = (0..g.index(5)).map(|_| g.index(4) as u32).collect();
                Step::BrTable(targets, g.index(4) as u32, [wide_i32(g), wide_i32(g), wide_i32(g)])
            }
            8 => Step::Call(wide_i32(g), g.next_bool()),
            _ => Step::ReturnIfRound,
        })
        .collect()
}

fn build_steps_module(steps: &[Step]) -> Module {
    let bin = FuncType::new(vec![ValType::I32, ValType::I32], vec![ValType::I32]);
    let mut b = ModuleBuilder::new();
    b.memory(1, Some(1));
    // helper(x, y) = rotl(x * y + 0x1234567, 5) ^ y, via a local past 128.
    let helper = b.func(bin.clone(), |f| {
        let mut t = 0;
        for _ in 0..130 {
            t = f.local(ValType::I32);
        }
        f.local_get(0).local_get(1).op(I::I32Mul).i32_const(0x1234567).op(I::I32Add);
        f.local_set(t).local_get(t).i32_const(5).op(I::I32Rotl);
        f.local_get(1).op(I::I32Xor);
    });
    b.table(1, Some(1));
    b.elem(0, vec![helper]);
    let run = b.func(bin, |f| {
        for _ in 0..WIDE_LOCALS {
            f.local(ValType::I32);
        }
        let acc = WIDE_LOCALS + 1;
        f.local_get(0).local_get(1).op(I::I32Xor).local_set(acc);
        for step in steps {
            match step {
                Step::AddConst(c) => {
                    f.local_get(acc).i32_const(*c).op(I::I32Add).local_set(acc);
                }
                Step::ViaLocal(idx, c) => {
                    f.local_get(acc).local_set(*idx).local_get(*idx);
                    f.i32_const(*c).op(I::I32Xor).local_set(acc);
                }
                Step::Memory(addr, offset) => {
                    f.i32_const(*addr).local_get(acc).i32_store(*offset);
                    f.i32_const(*addr).i32_load(*offset).i32_const(0x9e37_79b9u32 as i32);
                    f.op(I::I32Mul).local_set(acc);
                }
                Step::Wide(c) => {
                    f.local_get(acc).op(I::I64ExtendI32S).i64_const(*c).op(I::I64Mul);
                    f.op(I::I32WrapI64).local_set(acc);
                }
                Step::Loop(n, ctr) => {
                    f.i32_const(*n).local_set(*ctr);
                    f.block(BlockType::Empty, |f| {
                        f.loop_(BlockType::Empty, |f| {
                            f.local_get(*ctr).op(I::I32Eqz).br_if(1);
                            f.local_get(acc).i32_const(3).op(I::I32Mul).i32_const(1);
                            f.op(I::I32Add).local_set(acc);
                            f.local_get(*ctr).i32_const(1).op(I::I32Sub).local_set(*ctr);
                            f.br(0);
                        });
                    });
                }
                Step::IfElse(a, c) => {
                    f.local_get(acc).i32_const(0).op(I::I32LtS);
                    f.if_else(
                        BlockType::Value(ValType::I32),
                        |f| {
                            f.local_get(acc).i32_const(*a).op(I::I32Add);
                        },
                        |f| {
                            f.local_get(acc).i32_const(*c).op(I::I32Xor);
                        },
                    );
                    f.local_set(acc);
                }
                Step::IfOdd(c) => {
                    f.local_get(acc).i32_const(1).op(I::I32And);
                    f.op(I::If(BlockType::Empty));
                    f.local_get(acc).i32_const(*c).op(I::I32Sub).local_set(acc);
                    f.op(I::End);
                }
                Step::BrTable(targets, default, [a, c, m]) => {
                    f.block(BlockType::Empty, |f| {
                        f.block(BlockType::Empty, |f| {
                            f.block(BlockType::Empty, |f| {
                                f.block(BlockType::Empty, |f| {
                                    f.local_get(acc).i32_const(7).op(I::I32And);
                                    f.br_table(targets.clone(), *default);
                                });
                                f.local_get(acc).i32_const(*a).op(I::I32Add).local_set(acc);
                                f.br(2);
                            });
                            f.local_get(acc).i32_const(*c).op(I::I32Xor).local_set(acc);
                            f.br(1);
                        });
                        f.local_get(acc).i32_const(*m).op(I::I32Mul).local_set(acc);
                    });
                }
                Step::Call(c, indirect) => {
                    f.local_get(acc).i32_const(*c);
                    if *indirect {
                        f.i32_const(0).call_indirect(0);
                    } else {
                        f.call(helper);
                    }
                    f.local_set(acc);
                }
                Step::ReturnIfRound => {
                    f.local_get(acc).i32_const(15).op(I::I32And).op(I::I32Eqz);
                    f.op(I::If(BlockType::Empty));
                    f.local_get(acc).return_();
                    f.op(I::End);
                }
            }
        }
        f.local_get(acc);
    });
    b.export_func("run", run);
    b.build()
}

/// Run `run(p0, p1)` on a fresh instance; returns the outcome, retired
/// count and the epoch clock's reading (if one was configured).
fn run_steps(
    module: &Arc<Module>,
    config: InstanceConfig,
    args: &[Value],
) -> (Result<Vec<Value>, Trap>, u64, Option<u64>) {
    let mut inst = Instance::instantiate(Arc::clone(module), Imports::new(), config).unwrap();
    let out = inst.invoke("run", args);
    (out, inst.stats().instrs_retired, inst.epoch_clock().map(|c| c.now()))
}

#[test]
fn inplace_fuel_and_epoch_traps_land_where_the_retired_count_predicts() {
    check("inplace_fuel_and_epoch_traps_land_where_the_retired_count_predicts", 128, |g| {
        let steps = gen_steps(g);
        let module = Arc::new(build_steps_module(&steps));
        validate_module(&module).unwrap();
        let args = [Value::I32(g.next_i32()), Value::I32(g.next_i32())];
        let inplace = |fuel, epoch| InstanceConfig { fuel, epoch, ..Default::default() };

        let (want, total, _) = run_steps(&module, inplace(None, None), &args);
        let want = want.expect("generated programs do not trap");
        let (lowered, _, _) = run_steps(
            &module,
            InstanceConfig { tier: ExecTier::Lowered, ..Default::default() },
            &args,
        );
        assert_eq!(lowered.as_ref(), Ok(&want), "tiers agree");

        // Fuel below the total traps on the op that overdraws it.
        let fuel = g.range_u64(0, total);
        let (out, retired, _) = run_steps(&module, inplace(Some(fuel), None), &args);
        assert_eq!(out, Err(Trap::OutOfFuel), "fuel {fuel} of {total}");
        assert_eq!(retired, fuel + 1, "fuel {fuel} of {total}");
        // Enough fuel changes nothing.
        let fuel = total + g.range_u64(0, 3);
        let (out, retired, _) = run_steps(&module, inplace(Some(fuel), None), &args);
        assert_eq!(out.as_ref(), Ok(&want));
        assert_eq!(retired, total);

        // The epoch deadline (at least one tick) lands on a tick boundary.
        let tick_instrs = 1 + g.range_u64(0, 40);
        let deadline = g.range_u64(0, total / tick_instrs + 2);
        let epoch = EpochConfig { clock: EpochClock::new(), deadline, tick_instrs };
        let (out, retired, now) = run_steps(&module, inplace(None, Some(epoch)), &args);
        let trap_at = deadline.max(1) * tick_instrs;
        if trap_at <= total {
            assert_eq!(out, Err(Trap::Interrupted), "deadline {deadline} × {tick_instrs}");
            assert_eq!(retired, trap_at);
            assert_eq!(now, Some(deadline.max(1)));
        } else {
            assert_eq!(out.as_ref(), Ok(&want));
            assert_eq!(retired, total);
        }
    });
}

#[test]
fn inplace_counts_are_pinned_on_a_fixed_program() {
    // The parity property above takes the retired count from the run
    // itself; this pins it, with the result and peak stack depth, against
    // values recorded before byte-opcode dispatch, for every kind of step
    // and both arms of every branch (the engines charge simulated CPU from
    // `instrs_retired`, so host-speed work must leave it exact).
    let steps = [
        Step::AddConst(1_000_000),
        Step::ViaLocal(130, -77_777),
        Step::Memory(64, 300),
        Step::Wide(0x1234_5678_9abc),
        Step::Loop(3, 129),
        Step::IfElse(-5_000, 5_000),
        Step::IfOdd(12_345),
        Step::BrTable(vec![0, 2], 1, [100, -200, 300]),
        Step::Call(999, false),
        Step::Call(-999, true),
        Step::ReturnIfRound,
        Step::IfOdd(-3),
        Step::BrTable(vec![], 3, [7, 8, 9]),
        Step::AddConst(-1),
    ];
    let module = Arc::new(build_steps_module(&steps));
    let pins = [
        ((3, 5), -484_460_599, 170),
        ((-8, 1), 881_288_871, 169),
        ((1 << 20, 7), 470_490_915, 165),
        ((0, 0), 557_558_656, 148),
        ((-123_456, 654_321), 560_914_495, 170),
    ];
    for ((p0, p1), want, retired) in pins {
        let mut inst =
            Instance::instantiate(Arc::clone(&module), Imports::new(), InstanceConfig::default())
                .unwrap();
        let out = inst.invoke("run", &[Value::I32(p0), Value::I32(p1)]);
        assert_eq!(out, Ok(vec![Value::I32(want)]), "run({p0}, {p1})");
        assert_eq!(inst.stats().instrs_retired, retired, "run({p0}, {p1})");
        assert_eq!(inst.stats().peak_stack_slots, 3, "run({p0}, {p1})");
    }
}
