//! Wasm-core conformance: spec-behaviour checks run on BOTH execution
//! tiers, so the in-place interpreter and the lowered executor must agree
//! with the spec and with each other.

use std::sync::Arc;

use memwasm::wasm_core::types::BlockType;
use memwasm::wasm_core::{
    ExecTier, FuncType, Imports, Instance, InstanceConfig, Instruction as I, ModuleBuilder, Trap,
    ValType, Value,
};

fn run_both(
    build: impl Fn() -> ModuleBuilder,
    func: &str,
    args: &[Value],
) -> [Result<Vec<Value>, Trap>; 2] {
    [ExecTier::InPlace, ExecTier::Lowered].map(|tier| {
        let module = Arc::new(build().build());
        let mut inst = Instance::instantiate(
            module,
            Imports::new(),
            InstanceConfig { tier, fuel: Some(10_000_000), ..Default::default() },
        )
        .expect("instantiate");
        inst.invoke(func, args)
    })
}

fn expect_both(build: impl Fn() -> ModuleBuilder, func: &str, args: &[Value], want: Value) {
    let [a, b] = run_both(build, func, args);
    assert_eq!(a.as_deref(), Ok(&[want][..]), "in-place");
    assert_eq!(b.as_deref(), Ok(&[want][..]), "lowered");
}

fn expect_trap(build: impl Fn() -> ModuleBuilder, func: &str, args: &[Value], want: Trap) {
    let [a, b] = run_both(build, func, args);
    assert_eq!(a, Err(want.clone()), "in-place");
    assert_eq!(b, Err(want), "lowered");
}

#[test]
fn wrapping_integer_arithmetic() {
    let build = || {
        let mut b = ModuleBuilder::new();
        let f = b.func(FuncType::new(vec![ValType::I32, ValType::I32], vec![ValType::I32]), |f| {
            f.local_get(0).local_get(1).op(I::I32Mul);
        });
        b.export_func("mul", f);
        b
    };
    expect_both(build, "mul", &[Value::I32(i32::MAX), Value::I32(2)], Value::I32(-2));
}

#[test]
fn division_traps_on_both_tiers() {
    let build = || {
        let mut b = ModuleBuilder::new();
        let f = b.func(FuncType::new(vec![ValType::I32, ValType::I32], vec![ValType::I32]), |f| {
            f.local_get(0).local_get(1).op(I::I32DivS);
        });
        b.export_func("div", f);
        b
    };
    expect_trap(build, "div", &[Value::I32(1), Value::I32(0)], Trap::IntegerDivideByZero);
    expect_trap(build, "div", &[Value::I32(i32::MIN), Value::I32(-1)], Trap::IntegerOverflow);
    expect_both(build, "div", &[Value::I32(-7), Value::I32(2)], Value::I32(-3));
}

#[test]
fn float_to_int_conversions() {
    let build = || {
        let mut b = ModuleBuilder::new();
        let f = b.func(FuncType::new(vec![ValType::F64], vec![ValType::I32]), |f| {
            f.local_get(0).op(I::I32TruncF64S);
        });
        b.export_func("trunc", f);
        b
    };
    expect_both(build, "trunc", &[Value::F64(-3.99)], Value::I32(-3));
    expect_trap(build, "trunc", &[Value::F64(f64::NAN)], Trap::InvalidConversionToInteger);
    expect_trap(build, "trunc", &[Value::F64(3e10)], Trap::IntegerOverflow);
}

#[test]
fn memory_grow_and_bounds() {
    let build = || {
        let mut b = ModuleBuilder::new();
        b.memory(1, Some(2));
        let f = b.func(FuncType::new(vec![], vec![ValType::I32]), |f| {
            // grow(1) returns old size 1; grow(5) fails with -1; sum = 0.
            f.i32_const(1).op(I::MemoryGrow);
            f.i32_const(5).op(I::MemoryGrow);
            f.op(I::I32Add);
        });
        b.export_func("grow", f);
        let oob = b.func(FuncType::new(vec![ValType::I32], vec![ValType::I32]), |f| {
            f.local_get(0).i32_load(0);
        });
        b.export_func("load", oob);
        b
    };
    expect_both(build, "grow", &[], Value::I32(0));
    expect_trap(build, "load", &[Value::I32(70 << 10)], Trap::MemoryOutOfBounds);
    expect_both(build, "load", &[Value::I32(0)], Value::I32(0));
}

#[test]
fn globals_and_start_function() {
    let build = || {
        let mut b = ModuleBuilder::new();
        let g = b.global(ValType::I64, true, memwasm::wasm_core::module::ConstExpr::I64(5));
        let init = b.func(FuncType::new(vec![], vec![]), |f| {
            f.global_get(g).op(I::I64Const(37)).op(I::I64Add).global_set(g);
        });
        b.start(init);
        let read = b.func(FuncType::new(vec![], vec![ValType::I64]), |f| {
            f.global_get(g);
        });
        b.export_func("read", read);
        b
    };
    expect_both(build, "read", &[], Value::I64(42));
}

#[test]
fn block_results_flow_through_branches() {
    let build = || {
        let mut b = ModuleBuilder::new();
        let f = b.func(FuncType::new(vec![ValType::I32], vec![ValType::I32]), |f| {
            f.block(BlockType::Value(ValType::I32), |f| {
                // Either branch carries an i32 out of the block.
                f.i32_const(111);
                f.local_get(0).br_if(0);
                f.drop_();
                f.i32_const(222);
            });
        });
        b.export_func("pick", f);
        b
    };
    expect_both(build, "pick", &[Value::I32(1)], Value::I32(111));
    expect_both(build, "pick", &[Value::I32(0)], Value::I32(222));
}

#[test]
fn loop_branch_carries_params_to_loop_head() {
    // A loop with a block-type from the type section (params via Func).
    let build = || {
        let mut b = ModuleBuilder::new();
        // Countdown using a loop whose label is branched to with br_if.
        let f = b.func(FuncType::new(vec![ValType::I32], vec![ValType::I32]), |f| {
            let sum = f.local(ValType::I32);
            f.block(BlockType::Empty, |f| {
                f.loop_(BlockType::Empty, |f| {
                    f.local_get(0).op(I::I32Eqz).br_if(1);
                    f.local_get(sum).local_get(0).op(I::I32Add).local_set(sum);
                    f.local_get(0).i32_const(1).op(I::I32Sub).local_set(0);
                    f.br(0);
                });
            });
            f.local_get(sum);
        });
        b.export_func("sum", f);
        b
    };
    expect_both(build, "sum", &[Value::I32(1000)], Value::I32(500500));
}

#[test]
fn nan_propagation_bitpatterns_agree() {
    let build = || {
        let mut b = ModuleBuilder::new();
        let f = b.func(FuncType::new(vec![ValType::F64, ValType::F64], vec![ValType::I64]), |f| {
            f.local_get(0).local_get(1).op(I::F64Min).op(I::I64ReinterpretF64);
        });
        b.export_func("minbits", f);
        b
    };
    let [a, b] = run_both(build, "minbits", &[Value::F64(f64::NAN), Value::F64(1.0)]);
    assert_eq!(a, b, "tiers agree on NaN bit patterns");
}

#[test]
fn select_and_shift_semantics() {
    let build = || {
        let mut b = ModuleBuilder::new();
        let f = b.func(FuncType::new(vec![ValType::I32, ValType::I32], vec![ValType::I32]), |f| {
            // select(a << 33, a >> 1, cond=b)
            f.local_get(0).i32_const(33).op(I::I32Shl);
            f.local_get(0).i32_const(1).op(I::I32ShrU);
            f.local_get(1);
            f.op(I::Select);
        });
        b.export_func("f", f);
        b
    };
    // Shift count masked: 1 << 33 == 2.
    expect_both(build, "f", &[Value::I32(1), Value::I32(1)], Value::I32(2));
    expect_both(build, "f", &[Value::I32(8), Value::I32(0)], Value::I32(4));
}

#[test]
fn call_indirect_type_mismatch_traps() {
    let build = || {
        let mut b = ModuleBuilder::new();
        let sig_i32 = FuncType::new(vec![], vec![ValType::I32]);
        let sig_i64 = FuncType::new(vec![], vec![ValType::I64]);
        let f_i64 = b.func(sig_i64, |f| {
            f.op(I::I64Const(1));
        });
        b.table(1, Some(1));
        b.elem(0, vec![f_i64]);
        let sig_i32_idx_holder = sig_i32.clone();
        let caller = b.func(sig_i32, move |f| {
            let _ = &sig_i32_idx_holder;
            // type index 0 is () -> i64... depends on interning order; use
            // call_indirect with the *other* signature's type idx.
            f.i32_const(0).call_indirect(1);
        });
        b.export_func("call", caller);
        b
    };
    // Type index 1 is () -> (i32) (interned second); the table holds an
    // () -> (i64) function: mismatch.
    expect_trap(build, "call", &[], Trap::IndirectCallTypeMismatch);
}

#[test]
fn fuel_limits_agree() {
    let build = || {
        let mut b = ModuleBuilder::new();
        let f = b.func(FuncType::new(vec![], vec![]), |f| {
            f.loop_(BlockType::Empty, |f| {
                f.br(0);
            });
        });
        b.export_func("spin", f);
        b
    };
    for tier in [ExecTier::InPlace, ExecTier::Lowered] {
        let module = Arc::new(build().build());
        let mut inst = Instance::instantiate(
            module,
            Imports::new(),
            InstanceConfig { tier, fuel: Some(1_000), ..Default::default() },
        )
        .unwrap();
        assert_eq!(inst.invoke("spin", &[]), Err(Trap::OutOfFuel), "{tier:?}");
    }
}

// ---------------------------------------------------------------------------
// Fused-tier stress: each superinstruction pattern the lowering tier fuses
// must produce spec behaviour identical to the in-place interpreter, and
// the pattern must actually hit the fusion path (`stats.fused_ops > 0`),
// so a regression that silently stops fusing fails loudly here.
// ---------------------------------------------------------------------------

/// Instantiate on the lowered tier and assert the module fused at least
/// one pattern (fusion is counted at compile time, per instance).
fn assert_fused(build: impl Fn() -> ModuleBuilder) {
    let module = Arc::new(build().build());
    let inst = Instance::instantiate(
        module,
        Imports::new(),
        InstanceConfig { tier: ExecTier::Lowered, fuel: Some(10_000_000), ..Default::default() },
    )
    .expect("instantiate");
    assert!(inst.stats().fused_ops > 0, "pattern must exercise superinstruction fusion");
}

#[test]
fn fused_local_operand_binops_agree() {
    // local.get + local.get + binop: operands fold straight into the op.
    for (op, a, b, want) in [
        (I::I32Add, 7, -3, 4),
        (I::I32Sub, 7, -3, 10),
        (I::I32Mul, -7, 3, -21),
        (I::I32And, 0b1100, 0b1010, 0b1000),
        (I::I32Or, 0b1100, 0b1010, 0b1110),
        (I::I32Xor, 0b1100, 0b1010, 0b0110),
        (I::I32Shl, 1, 33, 2),
        (I::I32ShrS, -8, 1, -4),
        (I::I32ShrU, -8, 31, 1),
    ] {
        let build = move || {
            let mut b = ModuleBuilder::new();
            let op = op.clone();
            let f =
                b.func(FuncType::new(vec![ValType::I32, ValType::I32], vec![ValType::I32]), |f| {
                    f.local_get(0).local_get(1).op(op);
                });
            b.export_func("f", f);
            b
        };
        expect_both(&build, "f", &[Value::I32(a), Value::I32(b)], Value::I32(want));
        assert_fused(&build);
    }
}

#[test]
fn fused_const_imm_binops_agree() {
    // local.get + const + binop (+ local.set): the immediate folds into
    // the instruction word and the store retargets the destination slot.
    for (op, imm, a, want) in [
        (I::I32Add, 5, 37, 42),
        (I::I32Sub, 5, 37, 32),
        (I::I32Mul, -3, 7, -21),
        (I::I32And, 0xf0, 0xff, 0xf0),
        (I::I32Or, 0x0f, 0xf0, 0xff),
        (I::I32Xor, -1, 0, -1),
        (I::I32Shl, 4, 3, 48),
        (I::I32ShrS, 2, -16, -4),
        (I::I32ShrU, 2, -16, 0x3ffffffc),
    ] {
        let build = move || {
            let mut b = ModuleBuilder::new();
            let op = op.clone();
            let f = b.func(FuncType::new(vec![ValType::I32], vec![ValType::I32]), |f| {
                let tmp = f.local(ValType::I32);
                f.local_get(0).i32_const(imm).op(op).local_set(tmp);
                f.local_get(tmp);
            });
            b.export_func("f", f);
            b
        };
        expect_both(&build, "f", &[Value::I32(a)], Value::I32(want));
        assert_fused(&build);
    }
}

#[test]
fn fused_const_address_loads_and_stores_agree() {
    // const + load / const + store: the address folds into the word, and
    // a folded out-of-bounds address must still trap identically.
    let build = || {
        let mut b = ModuleBuilder::new();
        b.memory(1, Some(1));
        let rt = b.func(FuncType::new(vec![ValType::I64], vec![ValType::I64]), |f| {
            f.i32_const(64).local_get(0).i64_store(8);
            f.i32_const(64).i64_load(8);
        });
        b.export_func("roundtrip", rt);
        let oob = b.func(FuncType::new(vec![], vec![ValType::I32]), |f| {
            f.i32_const(65 << 10).i32_load(0);
        });
        b.export_func("oob", oob);
        b
    };
    expect_both(build, "roundtrip", &[Value::I64(-123456789)], Value::I64(-123456789));
    expect_trap(build, "oob", &[], Trap::MemoryOutOfBounds);
    assert_fused(build);
}

#[test]
fn fused_compare_branches_agree_in_both_polarities() {
    // compare + br_if fuses to a branching compare; compare + if fuses the
    // *inverted* compare. Drive every direction through both shapes with
    // operand pairs on each side of the condition (including the signed /
    // unsigned boundary at i32::MIN).
    let cases: [(I, i32, i32, bool); 20] = [
        (I::I32Eq, 3, 3, true),
        (I::I32Eq, 3, 4, false),
        (I::I32Ne, 3, 4, true),
        (I::I32Ne, 3, 3, false),
        (I::I32LtS, i32::MIN, 0, true),
        (I::I32LtS, 0, i32::MIN, false),
        (I::I32LtU, 0, i32::MIN, true),
        (I::I32LtU, i32::MIN, 0, false),
        (I::I32GtS, 0, i32::MIN, true),
        (I::I32GtS, i32::MIN, 0, false),
        (I::I32GtU, i32::MIN, 0, true),
        (I::I32GtU, 0, i32::MIN, false),
        (I::I32LeS, 5, 5, true),
        (I::I32LeS, 6, 5, false),
        (I::I32LeU, -1, -1, true),
        (I::I32LeU, -1, 0, false),
        (I::I32GeS, 5, 5, true),
        (I::I32GeS, 4, 5, false),
        (I::I32GeU, -1, 0, true),
        (I::I32GeU, 0, -1, false),
    ];
    for (op, a, b, taken) in cases {
        let op_if = op.clone();
        let br_shape = move || {
            let mut mb = ModuleBuilder::new();
            let op = op.clone();
            let f =
                mb.func(FuncType::new(vec![ValType::I32, ValType::I32], vec![ValType::I32]), |f| {
                    f.block(BlockType::Empty, |f| {
                        f.local_get(0).local_get(1).op(op).br_if(0);
                        f.i32_const(0).return_();
                    });
                    f.i32_const(1);
                });
            mb.export_func("f", f);
            mb
        };
        let if_shape = move || {
            let mut mb = ModuleBuilder::new();
            let op = op_if.clone();
            let f =
                mb.func(FuncType::new(vec![ValType::I32, ValType::I32], vec![ValType::I32]), |f| {
                    f.local_get(0).local_get(1).op(op);
                    f.if_else(
                        BlockType::Value(ValType::I32),
                        |f| {
                            f.i32_const(1);
                        },
                        |f| {
                            f.i32_const(0);
                        },
                    );
                });
            mb.export_func("f", f);
            mb
        };
        let want = Value::I32(taken as i32);
        expect_both(&br_shape, "f", &[Value::I32(a), Value::I32(b)], want);
        expect_both(&if_shape, "f", &[Value::I32(a), Value::I32(b)], want);
        assert_fused(&br_shape);
        assert_fused(&if_shape);
    }
}

#[test]
fn fused_tee_and_select_chains_agree() {
    // local.tee keeps the value live across a fused chain; select with a
    // constant condition folds statically, a dynamic one stays an op.
    let build = || {
        let mut b = ModuleBuilder::new();
        let f = b.func(FuncType::new(vec![ValType::I32], vec![ValType::I32]), |f| {
            let t = f.local(ValType::I32);
            // t = x + 1; select(t * 2, t, x != 0) with a dynamic condition,
            // then add a statically-folded select(10, 20, 1).
            f.local_get(0).i32_const(1).op(I::I32Add).local_tee(t);
            f.i32_const(2).op(I::I32Mul);
            f.local_get(t);
            f.local_get(0);
            f.op(I::Select);
            f.i32_const(10).i32_const(20).i32_const(1).op(I::Select);
            f.op(I::I32Add);
        });
        b.export_func("f", f);
        b
    };
    expect_both(build, "f", &[Value::I32(3)], Value::I32(18)); // (3+1)*2 + 10
    expect_both(build, "f", &[Value::I32(0)], Value::I32(11)); // (0+1)   + 10
    assert_fused(build);
}

#[test]
fn epoch_interrupt_is_identical_under_fusion() {
    use memwasm::wasm_core::{EpochClock, EpochConfig};
    // A hot loop made entirely of fusable patterns (imm add, compare +
    // br_if): the fused tier must still hit the epoch safepoint on every
    // executed word and trap with `Trap::Interrupted` exactly at the
    // deadline tick — fusion may change *how many* instructions retire,
    // never *whether* the watchdog fires.
    let build = || {
        let mut b = ModuleBuilder::new();
        let f = b.func(FuncType::new(vec![], vec![ValType::I32]), |f| {
            let i = f.local(ValType::I32);
            f.loop_(BlockType::Empty, |f| {
                f.local_get(i).i32_const(1).op(I::I32Add).local_set(i);
                f.local_get(i).i32_const(-1).op(I::I32Ne).br_if(0);
            });
            f.local_get(i);
        });
        b.export_func("spin", f);
        b
    };
    for tier in [ExecTier::InPlace, ExecTier::Lowered] {
        let run = || {
            let module = Arc::new(build().build());
            let mut inst = Instance::instantiate(
                module,
                Imports::new(),
                InstanceConfig {
                    tier,
                    epoch: Some(EpochConfig {
                        clock: EpochClock::new(),
                        deadline: 7,
                        tick_instrs: 64,
                    }),
                    ..Default::default()
                },
            )
            .unwrap();
            let res = inst.invoke("spin", &[]);
            (res, inst.stats().instrs_retired, inst.epoch_clock().unwrap().now())
        };
        let (res, retired, epoch) = run();
        assert_eq!(res, Err(Trap::Interrupted), "{tier:?}");
        assert_eq!(epoch, 7, "{tier:?}: trap lands exactly at the deadline tick");
        let (res2, retired2, _) = run();
        assert_eq!(res2, Err(Trap::Interrupted), "{tier:?}");
        assert_eq!(retired, retired2, "{tier:?}: same deadline, same trap point");
    }
    assert_fused(build);
}

/// `_start` of a workload module on the in-place tier, under WASI bound to a
/// process on a fresh kernel: the `(instrs_retired, peak_stack_slots,
/// side_table_bytes)` the engine profiles charge as simulated CPU time and
/// memory.
fn inplace_start_stats(cfg: &memwasm::workloads::MicroserviceConfig) -> (u64, u64, u64) {
    use memwasm::simkernel::{Kernel, KernelConfig, ProcessImage};
    let module = memwasm::wasm_core::decode_module(
        memwasm::workloads::module::microservice_module_bytes(cfg),
    )
    .expect("decode");
    let kernel = Kernel::boot(KernelConfig::default());
    let guard = ProcessImage::spawn(&kernel, "golden", Kernel::ROOT_CGROUP).build().expect("spawn");
    let imports = memwasm::wasi_sys::WasiCtx::new(kernel.clone(), guard.pid()).into_imports();
    let mut inst = Instance::instantiate(Arc::new(module), imports, InstanceConfig::default())
        .expect("instantiate");
    inst.run_start().expect("_start");
    guard.exit(0).expect("exit");
    let s = inst.stats();
    (s.instrs_retired, s.peak_stack_slots, s.side_table_bytes)
}

#[test]
fn inplace_start_stats_are_pinned() {
    // Golden values: the engines charge `instrs_retired × exec_ns_per_instr`
    // as simulated CPU (engines' exec pipeline, containerd's sandbox API),
    // so any host-speed change to the in-place tier must leave these exact
    // counts — and with them every simulated startup figure — untouched.
    use memwasm::harness::Workload;
    use memwasm::workloads::MicroserviceConfig;
    let cases = [
        ("default", MicroserviceConfig::default(), (1_196_017, 4, 24)),
        ("compute_heavy", MicroserviceConfig::compute_heavy(), (11_960_017, 4, 24)),
        ("memory_heavy", MicroserviceConfig::memory_heavy(), (2_392_017, 4, 24)),
        ("light", Workload::light().wasm, (29_917, 4, 24)),
        ("serving", Workload::serving().wasm, (29_917, 4, 24)),
    ];
    for (name, cfg, want) in cases {
        assert_eq!(inplace_start_stats(&cfg), want, "{name}");
    }
}
