//! The seeded generators: the same seed gives byte-identical inputs,
//! different seeds give different ones, and every list has its documented
//! shape.

use unitherm_benchmark::gen::{
    fleet_scenario, passthrough_share, serve_jobs, suite_order, sweep_scenarios,
};

fn json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("inputs serialize")
}

#[test]
fn same_seed_gives_byte_identical_inputs() {
    assert_eq!(json(&sweep_scenarios(7, 48)), json(&sweep_scenarios(7, 48)));
    assert_eq!(serve_jobs(7, 64), serve_jobs(7, 64));
    assert_eq!(suite_order(7, 3, 18), suite_order(7, 3, 18));
    assert_eq!(json(&fleet_scenario(7, 100, 2)), json(&fleet_scenario(7, 100, 2)));
}

#[test]
fn different_seeds_give_different_inputs() {
    assert_ne!(json(&sweep_scenarios(1, 48)), json(&sweep_scenarios(2, 48)));
    assert_ne!(serve_jobs(1, 64), serve_jobs(2, 64));
    assert_ne!(suite_order(1, 0, 18), suite_order(2, 0, 18));
    assert_ne!(suite_order(1, 0, 18), suite_order(1, 1, 18), "each pass has its own order");
    assert_ne!(json(&fleet_scenario(1, 100, 2)), json(&fleet_scenario(2, 100, 2)));
}

#[test]
fn sweep_list_has_its_documented_shape() {
    for seed in 1..4 {
        let list = sweep_scenarios(seed, 48);
        assert_eq!(list.len(), 48);
        for s in &list {
            s.validate().expect("generated scenarios are valid");
            assert!((4..=32).contains(&s.nodes), "{}", s.nodes);
            assert_eq!(s.threads, 1);
            assert!(s.record_series);
        }
        assert_eq!(list.iter().filter(|s| !s.faults.is_empty()).count(), 12, "a quarter faulted");
        assert_eq!(list.iter().filter(|s| s.rack.is_some()).count(), 16, "a third in a rack");
        let nodes: usize = list.iter().map(|s| s.nodes).sum();
        assert_eq!(nodes, 12 * (32 + 16 + 8 + 4), "every seed asks for the same node count");
        let share = passthrough_share(&list);
        assert!(share > 0.2 && share < 0.4, "{share}");
    }
}

#[test]
fn serve_jobs_parse_and_half_ask_for_two_threads() {
    let jobs = serve_jobs(5, 64);
    let scenarios: Vec<_> = jobs
        .iter()
        .map(|j| unitherm_experiments::scenario_file::parse(j).expect("job documents parse"))
        .collect();
    assert_eq!(scenarios.iter().filter(|s| s.threads == 2).count(), 32);
    for s in &scenarios {
        assert!((4..=16).contains(&s.nodes));
        assert!((60.0..=121.0).contains(&s.max_time_s));
    }
}
