//! Bit-identity of the tabulated compute-clock terms.
//!
//! `PowerModel` looks the voltage and leakage scale of a grid clock up in a
//! table built at construction and evaluates off-grid clocks on the spot.
//! Both must give exactly the watts of the closed-form model, bit for bit,
//! for every activity — including out-of-range, negative and NaN readings
//! from glitched telemetry.

use harmonia_power::memory::memory_power_at;
use harmonia_power::{Activity, PowerBreakdown, PowerModel};
use harmonia_types::{
    ComputeConfig, DeviceSpec, GridSpec, HwConfig, MegaHertz, MemoryConfig, Watts,
};
use proptest::prelude::*;

/// The closed-form card power model, written out in full: DVFS
/// interpolation and the leakage `powf` on every call, in the model's
/// float order.
fn reference(spec: &DeviceSpec, cfg: HwConfig, act: &Activity) -> PowerBreakdown {
    let p = &spec.power.compute;
    let valu = act.valu_activity.clamp(0.0, 1.0);
    let traffic = act.dram_traffic_fraction.clamp(0.0, 1.0);
    let v = spec.dvfs.voltage_for(cfg.compute.freq());
    let v2 = v.value() * v.value();
    let f_ghz = cfg.compute.freq().as_ghz();
    let n_cu = f64::from(cfg.compute.cu_count());
    let per_cu_full = p.c_dyn_per_cu * v2 * f_ghz;
    let activity_share = p.idle_clock_fraction + (1.0 - p.idle_clock_fraction) * valu;
    let leak_scale = (v.value() / p.leak_ref_voltage.value()).powf(p.leak_voltage_exponent);
    let f_mem_ghz = cfg.memory.bus_freq().as_ghz();
    let mem = memory_power_at(
        &spec.power.memory,
        cfg,
        act.dram_bytes_per_sec,
        spec.gpu.grid.mem_freq_max.as_ghz(),
    );
    PowerBreakdown {
        cu_dynamic: Watts(n_cu * per_cu_full * activity_share),
        leakage: Watts((n_cu * p.leak_per_cu_ref + p.leak_uncore_ref) * leak_scale),
        uncore: Watts(p.c_dyn_uncore * v2 * f_ghz + p.uncore_traffic_coeff * traffic),
        mem_controller: Watts(p.mc_per_mem_ghz * f_mem_ghz + p.mc_traffic_coeff * traffic),
        phy: mem.phy,
        dram_background: mem.background,
        dram_activate: mem.activate,
        dram_read_write: mem.read_write,
        dram_termination: mem.termination,
        other: spec.power.other,
    }
}

fn bits(p: &PowerBreakdown) -> [u64; 10] {
    [
        p.cu_dynamic,
        p.leakage,
        p.uncore,
        p.mem_controller,
        p.phy,
        p.dram_background,
        p.dram_activate,
        p.dram_read_write,
        p.dram_termination,
        p.other,
    ]
    .map(|w| w.value().to_bits())
}

fn catalog() -> Vec<DeviceSpec> {
    DeviceSpec::catalog()
        .iter()
        .map(|n| DeviceSpec::lookup(n).expect("catalog names resolve"))
        .collect()
}

fn grid_configs(grid: &GridSpec) -> Vec<HwConfig> {
    let mut out = Vec::new();
    for cu in grid.cu_levels() {
        for f in grid.cu_freq_levels() {
            for m in grid.mem_freq_levels() {
                out.push(HwConfig::new(
                    ComputeConfig::new_on(grid, cu, f).expect("on grid"),
                    MemoryConfig::new_on(grid, m).expect("on grid"),
                ));
            }
        }
    }
    out
}

/// Activities no sane counter produces: each component NaN, infinite,
/// negative, or past its range.
fn glitched() -> Vec<Activity> {
    let odd = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.5, -0.0, 3.0];
    let mut out = Vec::new();
    for &x in &odd {
        out.push(Activity {
            valu_activity: x,
            ..Activity::streaming(0.5, 0.5)
        });
        out.push(Activity {
            dram_traffic_fraction: x,
            ..Activity::streaming(0.5, 0.5)
        });
        out.push(Activity {
            dram_bytes_per_sec: x * 1e11,
            ..Activity::streaming(0.5, 0.5)
        });
    }
    out
}

fn assert_matches_reference(spec: &DeviceSpec, model: &PowerModel, cfg: HwConfig, act: &Activity) {
    let got = model.breakdown(cfg, act);
    assert_eq!(
        bits(&got),
        bits(&reference(spec, cfg, act)),
        "{}: {cfg} under {act:?}",
        spec.name
    );
    assert_eq!(
        model.card_pwr(cfg, act).value().to_bits(),
        got.card_pwr().value().to_bits()
    );
}

/// A fine lattice reaching below and above every catalog device's compute
/// clocks: its configurations sit between, below and above the catalog
/// grids' levels, as well as on them.
const WIDE: GridSpec = GridSpec {
    cu_min: 4,
    cu_max: 132,
    cu_step: 4,
    cu_freq_min: MegaHertz(50),
    cu_freq_max: MegaHertz(2500),
    cu_freq_step: 10,
    mem_freq_min: MegaHertz(200),
    mem_freq_max: MegaHertz(2000),
    mem_freq_step: 5,
    mem_bus_width_bits: 384,
    mem_transfer_rate: 4.0,
    flops_per_cu_clock: 128.0,
};

fn wide_config(cu: u32, f: u32, m: u32) -> HwConfig {
    HwConfig::new(
        ComputeConfig::new_on(&WIDE, cu, MegaHertz(f)).expect("on the wide lattice"),
        MemoryConfig::new_on(&WIDE, MegaHertz(m)).expect("on the wide lattice"),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_catalog_grid_config_matches_the_reference(
        valu in -0.5f64..1.5,
        traffic in -0.5f64..1.5,
        bytes in -1.0e10f64..1.0e12,
    ) {
        let act = Activity {
            valu_activity: valu,
            dram_bytes_per_sec: bytes,
            dram_traffic_fraction: traffic,
        };
        for spec in catalog() {
            let model = PowerModel::for_device(&spec);
            for cfg in grid_configs(&spec.gpu.grid) {
                assert_matches_reference(&spec, &model, cfg, &act);
            }
        }
    }

    #[test]
    fn off_grid_clocks_match_the_reference(
        cu in 1u32..33,
        f_step in 0u32..246,
        m_step in 0u32..361,
        valu in -0.5f64..1.5,
        traffic in -0.5f64..1.5,
    ) {
        let cfg = wide_config(cu * 4, 50 + f_step * 10, 200 + m_step * 5);
        let act = Activity {
            valu_activity: valu,
            dram_bytes_per_sec: traffic * 3.0e11,
            dram_traffic_fraction: traffic,
        };
        for spec in catalog() {
            assert_matches_reference(&spec, &PowerModel::for_device(&spec), cfg, &act);
        }
    }
}

#[test]
fn glitched_activities_match_the_reference_bit_for_bit() {
    for spec in catalog() {
        let model = PowerModel::for_device(&spec);
        let grid = spec.gpu.grid;
        let off = [
            HwConfig::max_on(&grid),
            HwConfig::min_on(&grid),
            wide_config(8, grid.cu_freq_min.value() + 10, 500),
        ];
        for act in glitched() {
            for cfg in off {
                assert_matches_reference(&spec, &model, cfg, &act);
            }
        }
    }
}

#[test]
fn clocks_between_below_and_above_the_levels_take_the_fallback() {
    let act = Activity::streaming(0.7, 0.4);
    for spec in catalog() {
        let model = PowerModel::for_device(&spec);
        let grid = spec.gpu.grid;
        let (lo, hi, step) = (
            grid.cu_freq_min.value(),
            grid.cu_freq_max.value(),
            grid.cu_freq_step,
        );
        let between = lo + step / 2;
        // Below the minimum, between two levels, above the maximum, and one
        // lattice step past the maximum (a table index past its end).
        for f in [
            lo - 10,
            between - between % 10,
            hi + 10,
            hi + step - step % 10,
        ] {
            let cfg = wide_config(8, f, 1000);
            assert_matches_reference(&spec, &model, cfg, &act);
        }
    }
}

#[test]
fn configs_from_another_devices_grid_match_the_reference() {
    let act = Activity::streaming(0.9, 0.8);
    let devices = catalog();
    for spec in &devices {
        let model = PowerModel::for_device(spec);
        for other in devices.iter().filter(|o| o.name != spec.name) {
            for cfg in grid_configs(&other.gpu.grid).into_iter().step_by(7) {
                assert_matches_reference(spec, &model, cfg, &act);
            }
        }
    }
}

#[test]
fn rebinding_the_grid_equals_a_fresh_model_on_it() {
    let devices = catalog();
    for spec in &devices {
        for other in &devices {
            let rebound = PowerModel::for_device(spec).with_grid(other.gpu.grid);
            let mut fresh_spec = spec.clone();
            fresh_spec.gpu.grid = other.gpu.grid;
            let fresh = PowerModel::for_device(&fresh_spec);
            assert_eq!(rebound, fresh, "{} on {}'s grid", spec.name, other.name);
            let act = Activity::streaming_on(&other.gpu.grid, 0.6, 0.7);
            for cfg in grid_configs(&other.gpu.grid).into_iter().step_by(5) {
                assert_matches_reference(&fresh_spec, &rebound, cfg, &act);
            }
        }
    }
}

#[test]
fn serialized_form_is_the_five_calibration_fields() {
    use serde::Serialize;
    for spec in catalog() {
        let value = PowerModel::for_device(&spec).to_value();
        let serde::Value::Object(fields) = value else {
            panic!("a power model serializes to an object");
        };
        let names: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, ["compute", "memory", "dvfs", "other", "grid"]);
        assert_eq!(fields[0].1, spec.power.compute.to_value());
        assert_eq!(fields[1].1, spec.power.memory.to_value());
        assert_eq!(fields[2].1, spec.dvfs.to_value());
        assert_eq!(fields[3].1, spec.power.other.to_value());
        assert_eq!(fields[4].1, spec.gpu.grid.to_value());
    }
}
