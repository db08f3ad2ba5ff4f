//! Pinned plans: the optimizer's chosen plan for every planner-corpus query
//! (the scale-1 `planner_workloads`, `stale-stats` and JOB-like query 4 at
//! the benchmark's smoke scale), planned with a sequential estimator.
//!
//! Each plan's strategy tree, atom order, part count and certificates are
//! compared with values recorded before the degree-statistics kernel was
//! rewritten.  A change to how statistics are *computed* must leave every
//! row here untouched; a change that means to alter plans has to update
//! this table on purpose.

use lpb_core::BatchEstimator;
use lpb_datagen::{
    job_like_catalog, job_like_queries, planner_workloads, stale_stats_workload, JobLikeConfig,
    PlannerWorkload,
};
use lpb_exec::Optimizer;

/// One pinned plan: workload name, `PhysicalPlan::describe`, atom order,
/// `parts_planned`, and every certificate `(what, log₂ bound)` in tree order.
struct Pin {
    name: &'static str,
    tree: &'static str,
    order: &'static [usize],
    parts_planned: usize,
    certificates: &'static [(&'static str, f64)],
}

const PINS: &[Pin] = &[
    Pin {
        name: "skewed-triangle",
        tree: "∪[E#light: wcoj[0,1,2] | E#heavy: wcoj[0,1,2]]",
        order: &[0, 1, 2],
        parts_planned: 2,
        certificates: &[
            ("wcoj[[0, 1, 2]]", 10.804783121874795),
            ("part E#light", 10.804783121874795),
            ("wcoj[[0, 1, 2]]", 10.772529476552762),
            ("part E#heavy", 10.772529476552762),
            ("∪ partitioned", 11.788746432258444),
        ],
    },
    Pin {
        name: "misleading-chain",
        tree: "scan[2]⋈[1,0]",
        order: &[2, 1, 0],
        parts_planned: 0,
        certificates: &[
            ("scan[2]", 4.906890595608519),
            ("⋈[1]", 4.906890595608519),
            ("⋈[0]", 9.228818690495881),
        ],
    },
    Pin {
        name: "bridged-chains",
        tree: "(scan[0]⋈[1,2]⋈scan[4]⋈[3])",
        order: &[0, 1, 2, 4, 3],
        parts_planned: 0,
        certificates: &[
            ("scan[0]", 6.321928094887363),
            ("⋈[1]", 6.321928094887363),
            ("⋈[2]", 6.321928094887363),
            ("scan[4]", 6.321928094887363),
            ("⋈[3]", 6.321928094887362),
            ("(scan[0]⋈[1,2]⋈scan[4]⋈[3])", 12.643856189774723),
        ],
    },
    Pin {
        name: "partition-skew",
        tree: "∪[S#light: scan[0]⋈[1,2] | S#heavy: scan[2]⋈[1,0]]",
        order: &[0, 1, 2],
        parts_planned: 2,
        certificates: &[
            ("scan[0]", 6.459431618637297),
            ("⋈[1]", 6.459431618637297),
            ("⋈[2]", 6.459431618637297),
            ("part S#light", 6.459431618637297),
            ("scan[2]", 6.459431618637297),
            ("⋈[1]", 6.459431618637297),
            ("⋈[0]", 6.459431618637297),
            ("part S#heavy", 6.459431618637297),
            ("∪ partitioned", 7.459431618637297),
        ],
    },
    Pin {
        name: "large-mixed-12",
        tree: "wcoj[0,1,2]⋈[3,4,5,6,7,8,9,11,10]",
        order: &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 10],
        parts_planned: 0,
        certificates: &[
            ("wcoj[[0, 1, 2]]", 9.954196310386878),
            ("⋈[3]", 9.55421525920179),
            ("⋈[4]", 9.55421525920179),
            ("⋈[5]", 9.55421525920179),
            ("⋈[6]", 9.55421525920179),
            ("⋈[7]", 9.55421525920179),
            ("⋈[8]", 9.61470984411521),
            ("⋈[9]", 10.61470984411521),
            ("⋈[11]", 11.61470984411521),
            ("⋈[10]", 12.614709844115213),
        ],
    },
    Pin {
        name: "stale-stats",
        tree: "scan[0]⋈[1,2,3]",
        order: &[0, 1, 2, 3],
        parts_planned: 0,
        certificates: &[
            ("scan[0]", 4.321928094887363),
            ("⋈[1]", 4.321928094887363),
            ("⋈[2]", 7.321928094887363),
            ("⋈[3]", 7.321928094887363),
        ],
    },
    Pin {
        name: "job-like",
        tree: "∪[cast_info#light: yannakakis[4,2,3,0,1] | cast_info#heavy: yannakakis[4,2,0,1,3]]",
        order: &[4, 2, 3, 0, 1],
        parts_planned: 2,
        certificates: &[
            ("reduce[4]", 7.129283016944966),
            ("reduce[2]", 7.339850002884624),
            ("reduce[3]", 2.584962500721156),
            ("reduce[0]", 7.266786540694901),
            ("reduce[1]", 6.643856189774724),
            ("⋈[2]", 8.491853096329674),
            ("⋈[3]", 8.491853096329674),
            ("⋈[0]", 10.385280143686867),
            ("⋈[1]", 10.385280143686867),
            ("part cast_info#light", 10.385280143686867),
            ("reduce[4]", 7.129283016944966),
            ("reduce[2]", 7.339850002884624),
            ("reduce[0]", 7.011227255423254),
            ("reduce[1]", 6.643856189774724),
            ("reduce[3]", 2.584962500721156),
            ("⋈[2]", 8.491853096329674),
            ("⋈[0]", 11.181152256865566),
            ("⋈[1]", 11.181152256865566),
            ("⋈[3]", 11.181152256865566),
            ("part cast_info#heavy", 11.181152256865566),
            ("∪ partitioned", 11.837415102551041),
        ],
    },
];

/// The corpus member called `name`: a `planner_workloads(1)` query,
/// `stale-stats`, or `job-like` (JOB-like query 4 over the 200-movie
/// catalog the planner-quality smoke run uses).
fn workload(name: &str) -> PlannerWorkload {
    match name {
        "stale-stats" => stale_stats_workload(1),
        "job-like" => PlannerWorkload {
            name: "job-like",
            query: job_like_queries()
                .into_iter()
                .nth(3)
                .expect("the JOB-like suite has a fourth query")
                .query,
            catalog: job_like_catalog(&JobLikeConfig {
                movies: 200,
                link_fanout: 2,
                seed: 23,
                ..JobLikeConfig::default()
            }),
        },
        _ => planner_workloads(1)
            .into_iter()
            .find(|w| w.name == name)
            .unwrap_or_else(|| panic!("no planner workload `{name}`")),
    }
}

fn check(name: &str) {
    let pin = PINS
        .iter()
        .find(|p| p.name == name)
        .expect("every checked workload is pinned");
    let w = workload(name);
    let optimizer = Optimizer::new().with_estimator(BatchEstimator::new().sequential());
    let plan = optimizer.plan(&w.query, &w.catalog).unwrap();
    assert_eq!(plan.physical.describe(), pin.tree, "{name}: strategy tree");
    assert_eq!(plan.order, pin.order, "{name}: atom order");
    assert_eq!(
        plan.parts_planned, pin.parts_planned,
        "{name}: parts planned"
    );
    let certificates = plan.physical.certificates();
    assert_eq!(
        certificates.len(),
        pin.certificates.len(),
        "{name}: certificate count ({certificates:?})"
    );
    for ((what, got), (want_what, want)) in certificates.iter().zip(pin.certificates) {
        assert_eq!(what, want_what, "{name}: certificate order");
        assert!(
            (got - want).abs() <= 1e-9,
            "{name}: certificate `{what}` is {got}, pinned {want}"
        );
    }
}

#[test]
fn the_pin_table_covers_the_whole_corpus() {
    let mut names: Vec<&str> = planner_workloads(1).iter().map(|w| w.name).collect();
    names.extend(["stale-stats", "job-like"]);
    let pinned: Vec<&str> = PINS.iter().map(|p| p.name).collect();
    assert_eq!(pinned, names);
}

#[test]
fn skewed_triangle_plan_is_pinned() {
    check("skewed-triangle");
}

#[test]
fn misleading_chain_plan_is_pinned() {
    check("misleading-chain");
}

#[test]
fn bridged_chains_plan_is_pinned() {
    check("bridged-chains");
}

#[test]
fn partition_skew_plan_is_pinned() {
    check("partition-skew");
}

#[test]
fn large_mixed_12_plan_is_pinned() {
    check("large-mixed-12");
}

#[test]
fn stale_stats_plan_is_pinned() {
    check("stale-stats");
}

#[test]
fn job_like_plan_is_pinned() {
    check("job-like");
}
