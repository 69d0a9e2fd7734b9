//! The reproduction contract, executable: every paper table and figure must
//! reproduce its qualitative *shape* — who wins, orderings, crossovers —
//! per `DESIGN.md` §4. Each experiment states it as `claims()` rows; a
//! failing row is a shape violation. (Absolute numbers are not expected to
//! match the authors' 2010 testbed; the rows record both.)
//!
//! The shape tests run the same experiment code as the `repro` binary at
//! `Fast` scale, one test per entry of `EXPERIMENTS`, and print the
//! rendered result on failure so violations are diagnosable from CI logs
//! alone. The measured tables of `EXPERIMENTS.md` are the experiments'
//! claims at `Full` scale; regenerate them with
//! `UNITHERM_UPDATE_GOLDEN=1 cargo test --test experiment_shapes`.

use std::path::Path;

use unitherm::experiments::{claims_markdown, Experiment, Scale, EXPERIMENTS};

fn assert_shape(result: &dyn Experiment) {
    let violations = result.shape_violations();
    assert!(
        violations.is_empty(),
        "{} violated its shape criteria:\n{:#?}\n--- rendered result ---\n{}",
        result.id(),
        violations,
        result.render()
    );
}

fn run(id: &str, scale: Scale) -> Box<dyn Experiment> {
    let (_, run) = EXPERIMENTS.iter().find(|(e, _)| *e == id).expect("registered experiment");
    run(scale)
}

macro_rules! shape_tests {
    ($($test:ident => $id:literal,)*) => {
        $(
            #[test]
            fn $test() {
                assert_shape(&*run($id, Scale::Fast));
            }
        )*

        /// The experiment ids with a shape test, in registry order.
        const SHAPE_TESTED: &[&str] = &[$($id),*];
    };
}

shape_tests! {
    fig1_static_fan_curve => "fig1",
    fig2_thermal_behaviour_taxonomy => "fig2",
    fig5_fan_policy_sweep => "fig5",
    fig6_fan_scheme_comparison => "fig6",
    fig7_max_pwm_sweep => "fig7",
    fig8_tdvfs_with_static_fan => "fig8",
    fig9_tdvfs_vs_cpuspeed => "fig9",
    fig10_hybrid_policy_sweep => "fig10",
    table1_governor_comparison => "table1",
    ablation_window_levels => "ablate-window",
    ablation_l1_size => "ablate-l1size",
    ablation_fill_rule => "ablate-fill",
    ablation_hybrid_isolation => "ablate-hybrid",
    ablation_tdvfs_hysteresis => "ablate-hysteresis",
    feedforward_study => "feedforward",
    rack_hot_pocket_study => "rack",
    straggler_study => "straggler",
    scaling_study => "scaling",
}

#[test]
fn every_registered_experiment_has_a_shape_test() {
    let registered: Vec<&str> = EXPERIMENTS.iter().map(|(id, _)| *id).collect();
    assert_eq!(SHAPE_TESTED, registered, "add a shape_tests! entry for each new experiment");
}

/// Each experiment's measured table in `EXPERIMENTS.md` sits between
/// `<!-- claims:ID -->` and `<!-- /claims:ID -->` and is the markdown of
/// its claims at `Full` scale, which must also hold.
#[test]
fn experiments_md_tables_are_the_full_scale_claims() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("EXPERIMENTS.md");
    let mut doc = std::fs::read_to_string(&path).expect("EXPERIMENTS.md");
    let update = std::env::var_os("UNITHERM_UPDATE_GOLDEN").is_some();
    let mut stale = Vec::new();
    for (id, run) in EXPERIMENTS {
        let result = run(Scale::Full);
        assert_shape(&*result);
        let (open, close) = (format!("<!-- claims:{id} -->\n"), format!("<!-- /claims:{id} -->"));
        let start = doc.find(&open).unwrap_or_else(|| panic!("EXPERIMENTS.md lacks {open:?}"));
        let start = start + open.len();
        let len =
            doc[start..].find(&close).unwrap_or_else(|| panic!("no {close:?} after {open:?}"));
        let table = claims_markdown(&result.claims());
        if doc[start..start + len] != table {
            stale.push(*id);
            doc.replace_range(start..start + len, &table);
        }
    }
    if update {
        std::fs::write(&path, doc).expect("rewrite EXPERIMENTS.md");
    } else {
        assert!(
            stale.is_empty(),
            "EXPERIMENTS.md claims out of date for {stale:?}; regenerate with \
             UNITHERM_UPDATE_GOLDEN=1 cargo test --test experiment_shapes"
        );
    }
}

#[test]
fn csv_export_works_for_every_experiment() {
    let dir = std::env::temp_dir().join("unitherm_shape_csv");
    for (id, run) in EXPERIMENTS {
        let result = run(Scale::Fast);
        result.write_csv(&dir).unwrap_or_else(|e| panic!("{id} CSV export failed: {e}"));
        let file = dir.join(format!("{}.csv", id.replace('-', "_")));
        let csv = std::fs::read_to_string(&file).unwrap_or_else(|e| panic!("{file:?}: {e}"));
        assert!(csv.lines().count() > 1, "{id}: header and at least one row");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
