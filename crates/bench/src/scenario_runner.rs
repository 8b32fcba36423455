//! The bench crate's [`BuiltinRunner`]: resolves `kind = "builtin"`
//! scenario ids to the hand-coded experiments (figure regenerations,
//! space-time timelines and sweeps whose fault choreography is not
//! expressible in the recovery/hijack schema) and renders the exact
//! text block the `experiments` binary prints for that id.

use std::fmt::Write as _;

use lsrp_scenario::{BuiltinRunner, ParamValue};

use crate::{figures, loops_exp, multi_exp, overhead, selfstab, waves};

/// Every id [`BenchRunner`] dispatches, in experiment order.
pub const BUILTIN_IDS: &[&str] = &[
    "e1", "e3", "e4", "e5", "e8", "e9", "e11", "e12", "e15", "e17", "e19",
];

/// Runs builtin experiment ids E1–E19 with scenario `[params]`.
#[derive(Debug, Default, Clone, Copy)]
pub struct BenchRunner;

fn get<'a>(params: &'a [(String, ParamValue)], key: &str) -> Option<&'a ParamValue> {
    params.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn int<T: TryFrom<i64>>(v: &ParamValue, key: &str) -> Result<T, String> {
    match v {
        ParamValue::Int(i) => {
            T::try_from(*i).map_err(|_| format!("[params] {key} = {i} is out of range"))
        }
        _ => Err(format!("[params] {key} must be an integer")),
    }
}

fn float(v: &ParamValue, key: &str) -> Result<f64, String> {
    match v {
        ParamValue::Float(x) => Ok(*x),
        #[allow(clippy::cast_precision_loss)]
        ParamValue::Int(i) => Ok(*i as f64),
        _ => Err(format!("[params] {key} must be a number")),
    }
}

fn take_int<T: TryFrom<i64>>(
    params: &[(String, ParamValue)],
    key: &str,
    default: T,
) -> Result<T, String> {
    get(params, key).map_or(Ok(default), |v| int(v, key))
}

fn take_int_list<T>(
    params: &[(String, ParamValue)],
    key: &str,
    default: &[T],
) -> Result<Vec<T>, String>
where
    T: TryFrom<i64> + Copy,
{
    match get(params, key) {
        None => Ok(default.to_vec()),
        Some(ParamValue::List(xs)) => xs.iter().map(|v| int(v, key)).collect(),
        Some(_) => Err(format!("[params] {key} must be a list of integers")),
    }
}

fn take_float_list(
    params: &[(String, ParamValue)],
    key: &str,
    default: &[f64],
) -> Result<Vec<f64>, String> {
    match get(params, key) {
        None => Ok(default.to_vec()),
        Some(ParamValue::List(xs)) => xs.iter().map(|v| float(v, key)).collect(),
        Some(_) => Err(format!("[params] {key} must be a list of numbers")),
    }
}

impl BuiltinRunner for BenchRunner {
    fn run(&self, id: &str, params: &[(String, ParamValue)]) -> Result<String, String> {
        let p = params;
        let out = match id {
            "e1" => {
                let (table, timelines) = figures::e1_e2_fig2_vs_fig5();
                let mut out = format!("{table}\n");
                for (title, tl) in timelines {
                    let _ = write!(out, "**{title}**\n\n```\n{tl}```\n\n");
                }
                let _ = writeln!(out, "{}", figures::e4b_dependent_sets());
                out
            }
            "e3" => {
                let (table, tl) = figures::e3_fig6();
                format!("{table}\n**LSRP timeline (d.v11 := 2)**\n\n```\n{tl}```\n\n")
            }
            "e4" => format!("{}\n", figures::e4_fig7()),
            "e5" => {
                let sizes: Vec<u32> = take_int_list(p, "sizes", &[16, 32, 64])?;
                let runs: u64 = take_int(p, "runs", 10)?;
                format!("{}\n", selfstab::e5_selfstab(&sizes, runs))
            }
            "e8" => {
                let width: u32 = take_int(p, "width", 14)?;
                let runs: u64 = take_int(p, "runs", 20)?;
                format!("{}\n", loops_exp::e8_loop_freedom(width, runs))
            }
            "e9" => {
                let loops: Vec<u32> = take_int_list(p, "loops", &[4, 8, 16, 32, 64])?;
                format!("{}\n", loops_exp::e9_loop_breakage(&loops))
            }
            "e11" => {
                let widths: Vec<u32> = take_int_list(p, "widths", &[8, 16, 24])?;
                let sizes: Vec<usize> = take_int_list(p, "sizes", &[2])?;
                format!("{}\n", overhead::e11_overhead(&widths, &sizes))
            }
            "e12" => {
                let ratios = take_float_list(p, "ratios", &[1.2, 1.5, 2.125, 4.0, 8.0])?;
                format!("{}\n", waves::e12_wave_ratio(&ratios))
            }
            "e15" => {
                let width: u32 = take_int(p, "width", 14)?;
                let runs: u64 = take_int(p, "runs", 30)?;
                format!("{}\n", loops_exp::e15_c2_ablation(width, runs))
            }
            "e17" => {
                let sizes: Vec<usize> = take_int_list(p, "sizes", &[1, 2, 4, 8, 16])?;
                format!("{}\n", waves::e17_containment_depth(&sizes))
            }
            "e19" => {
                let width: u32 = take_int(p, "width", 8)?;
                let trees: Vec<usize> = take_int_list(p, "trees", &[1, 4, 16, 64])?;
                format!("{}\n", multi_exp::e19_full_table(width, &trees))
            }
            other => {
                return Err(format!(
                    "unknown builtin experiment id '{other}' (the bench runner covers {})",
                    BUILTIN_IDS.join(", ")
                ))
            }
        };
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_id_is_an_error() {
        let err = BenchRunner.run("e99", &[]).unwrap_err();
        assert!(err.contains("e99"), "{err}");
        for id in BUILTIN_IDS {
            assert!(err.contains(&format!(" {id}")), "{err}");
        }
    }

    #[test]
    fn every_listed_id_dispatches() {
        // Every parameter any arm reads, mistyped: an arm with parameters
        // fails its first read instead of running the experiment, and the
        // parameter-free figure arms run (they are small).
        let mistyped: Vec<(String, ParamValue)> = [
            "sizes", "runs", "width", "loops", "widths", "ratios", "trees",
        ]
        .iter()
        .map(|k| ((*k).to_string(), ParamValue::Bool(true)))
        .collect();
        for id in BUILTIN_IDS {
            match BenchRunner.run(id, &mistyped) {
                Ok(text) => assert!(!text.is_empty(), "{id}"),
                Err(e) => assert!(e.starts_with("[params] "), "{id}: {e}"),
            }
        }
    }

    #[test]
    fn e4_matches_the_direct_call() {
        let text = BenchRunner.run("e4", &[]).unwrap();
        assert_eq!(text, format!("{}\n", figures::e4_fig7()));
    }

    #[test]
    fn params_override_defaults() {
        let params = vec![(
            "sizes".to_string(),
            ParamValue::List(vec![ParamValue::Int(1), ParamValue::Int(2)]),
        )];
        let text = BenchRunner.run("e17", &params).unwrap();
        assert_eq!(text, format!("{}\n", waves::e17_containment_depth(&[1, 2])));
    }
}
