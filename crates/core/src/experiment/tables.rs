//! Tables 1–3 of the paper, regenerated from the code's own types.
//!
//! These are configuration tables rather than measurements; reproducing
//! them from the implementation proves the implementation carries the same
//! structure (schemes, parameters, workload set).

use crate::error::FleetError;
use crate::experiment::harness::{Experiment, ExperimentCtx, ExperimentOutput};
use crate::params::{FleetParams, SchemeKind};
use fleet_apps::{catalog, AppCategory};
use fleet_metrics::Table;

/// Table 1: comparison methods.
pub fn table1() -> Table {
    let mut t = Table::new(["Method", "GC approach", "Swap granularity", "Swap scheme"]);
    for scheme in [SchemeKind::Android, SchemeKind::Marvin, SchemeKind::Fleet] {
        t.row([
            scheme.to_string(),
            scheme.gc_approach().to_string(),
            scheme.swap_granularity().to_string(),
            scheme.swap_scheme().to_string(),
        ]);
    }
    t
}

/// The footnote to Table 2's Tf row.
const TF_NOTE: &str =
    "* the paper's Tf, not modelled: the simulator stops Fleet at the foreground switch";

/// Table 2: Fleet's default parameters, with Tf as the paper sets it (the
/// simulator does not model it).
pub fn table2() -> Table {
    let p = FleetParams::default();
    let mut t = Table::new(["Parameter", "Symbol", "Setting"]);
    t.row(["Maximum depth to the roots for NRO", "D", &p.depth.to_string()]);
    t.row([
        "Wait time to start Fleet in the background",
        "Ts",
        &format!("{} seconds", p.ts.as_millis() / 1000),
    ]);
    t.row(["Wait time to stop Fleet in the foreground", "Tf", "3 seconds*"]);
    t.row(["CARD_SHIFT for card address conversion", "-", &p.card_shift.to_string()]);
    t.row(["Region size of the Java heap", "-", &format!("{} KB", p.region_size / 1024)]);
    t
}

/// Table 3: the commercial apps under evaluation.
pub fn table3() -> Table {
    let mut t = Table::new(["App type", "Apps"]);
    for cat in [
        AppCategory::Communication,
        AppCategory::Multimedia,
        AppCategory::Tools,
        AppCategory::Games,
    ] {
        let names: Vec<String> =
            catalog().into_iter().filter(|a| a.category == cat).map(|a| a.name).collect();
        t.row([cat.to_string(), names.join(", ")]);
    }
    t
}

/// Experiment `table1`.
pub const TABLE1: Experiment = Experiment {
    id: "table1",
    title: "Table 1 — comparison methods",
    description: "Qualitative side-by-side of the Android, Marvin, and Fleet mechanisms",
    module: "tables",
    aliases: &[],
    run: run_table1,
};

fn run_table1(_ctx: &ExperimentCtx) -> Result<ExperimentOutput, FleetError> {
    let mut out = ExperimentOutput::new();
    out.section(TABLE1.title);
    out.table(table1());
    Ok(out)
}

/// Experiment `table2`.
pub const TABLE2: Experiment = Experiment {
    id: "table2",
    title: "Table 2 — Fleet's default parameters",
    description: "Fleet's Ts/Tf, grouping depth, and region parameters",
    module: "tables",
    aliases: &[],
    run: run_table2,
};

fn run_table2(_ctx: &ExperimentCtx) -> Result<ExperimentOutput, FleetError> {
    let mut out = ExperimentOutput::new();
    out.section(TABLE2.title);
    out.table(table2());
    out.text(TF_NOTE);
    Ok(out)
}

/// Experiment `table3`.
pub const TABLE3: Experiment = Experiment {
    id: "table3",
    title: "Table 3 — commercial apps for evaluation",
    description: "The simulated app profiles standing in for the paper's app set",
    module: "tables",
    aliases: &[],
    run: run_table3,
};

fn run_table3(_ctx: &ExperimentCtx) -> Result<ExperimentOutput, FleetError> {
    let mut out = ExperimentOutput::new();
    out.section(TABLE3.title);
    out.table(table3());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_three_methods() {
        let t = table1();
        assert_eq!(t.len(), 3);
        let s = t.to_string();
        assert!(s.contains("Marvin"));
        assert!(s.contains("Background-object GC"));
    }

    #[test]
    fn table2_lists_all_five_parameters() {
        let t = table2();
        assert_eq!(t.len(), 5);
        let s = t.to_string();
        assert!(s.contains("10 seconds"));
        assert!(s.contains("256 KB"));
    }

    #[test]
    fn table3_covers_four_categories() {
        let t = table3();
        assert_eq!(t.len(), 4);
        let s = t.to_string();
        assert!(s.contains("Twitter"));
        assert!(s.contains("CandyCrush"));
    }
}
