//! `synth_warm`: set-up loads a cost-5 snapshot and prepares the
//! bidirectional join; each op answers one target drawn uniformly from
//! all 8! = 40320 3-wire reversible functions through the read-only MCE
//! path `synthesize_bidirectional_cached(target, 7)` that `mvq serve`
//! uses for deep targets. Nothing is expanded after set-up, so the
//! backward frontier and join in `mitm` (and `par`) do the work.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mvq_core::{known, CachedBidirectional, Circuit, ProbeHandle, SynthesisEngine};
use mvq_perm::Perm;

use crate::probe::CountingProbe;
use crate::stats::{ms, quantile, round_plan, timed, us, Rng, Rounds, ROUND, SETUP_EVERY};
use crate::{Report, DEFAULT_SEED, HELD_OUT_SEED};

/// Depth of the snapshot both warm workloads load.
pub const SNAPSHOT_CB: u32 = 5;
/// Cost bound of every query: the paper's bound, enough for any 3-wire
/// function that has a circuit at all.
pub const CB: u32 = 7;
/// Uniform draws per seed; the run cycles over them.
const DRAWS: usize = 2048;
/// Set-ups timed for the traced split into load and prepare.
const SETUP_REPEATS: usize = 9;
/// Found draws (pinned gates included) for the two named seeds.
const FOUND_AT_DEFAULT_SEED: usize = 555;
const FOUND_AT_HELD_OUT_SEED: usize = 515;

/// One input: a target and, for the paper's named gates, its cost.
pub struct Target {
    pub perm: Perm,
    pub pinned_cost: Option<u32>,
}

/// Peres, Toffoli and Fredkin at their paper costs, then `DRAWS`
/// uniform permutations of the 8 binary patterns.
fn targets(seed: u64) -> Vec<Target> {
    let mut out = vec![
        Target {
            perm: known::peres_perm(),
            pinned_cost: Some(4),
        },
        Target {
            perm: known::toffoli_perm(),
            pinned_cost: Some(5),
        },
        Target {
            perm: known::fredkin_perm(),
            pinned_cost: Some(7),
        },
    ];
    let mut rng = Rng::new(seed);
    for _ in 0..DRAWS {
        let mut images: Vec<usize> = (1..=8).collect();
        rng.shuffle(&mut images);
        out.push(Target {
            perm: Perm::from_images(&images).expect("a shuffle is a permutation"),
            pinned_cost: None,
        });
    }
    out
}

/// Set-up: load the snapshot and build the join indexes. Returns the
/// engine with the two parts' times.
fn setup(snapshot: &Path, threads: usize) -> Result<(SynthesisEngine, Duration, Duration), String> {
    let (load, engine) = timed(|| SynthesisEngine::load_snapshot_with_threads(snapshot, threads));
    let mut engine = engine.map_err(|e| format!("{}: {e}", snapshot.display()))?;
    let (prepare, expanded) = timed(|| engine.prepare_bidirectional(CB));
    if expanded != 0 || engine.completed_cost() != Some(SNAPSHOT_CB) {
        return Err("the snapshot did not load warm to cost 5".into());
    }
    Ok((engine, load, prepare))
}

fn query(engine: &SynthesisEngine, target: &Perm) -> Option<Option<(u32, Circuit)>> {
    match engine.synthesize_bidirectional_cached(target, CB) {
        CachedBidirectional::Resolved(found) => Some(found.map(|s| (s.cost, s.circuit))),
        CachedBidirectional::NeedsPreparation => None,
    }
}

/// The checked answers to every target, from one untimed pass: each
/// circuit is verified at the unitary level (exact arithmetic), its
/// cost must equal its gates' cost and be ≤ 7, and pinned gates must
/// come out at their paper cost. `None` marks a failed target.
fn verified_answers(
    engine: &SynthesisEngine,
    targets: &[Target],
) -> Vec<Option<Option<(u32, Circuit)>>> {
    targets
        .iter()
        .map(|t| {
            let answer = query(engine, &t.perm)?;
            let ok = match &answer {
                Some((cost, circuit)) => {
                    *cost <= CB
                        && circuit.quantum_cost() == *cost
                        && circuit.verify_against_binary_perm(&t.perm)
                        && t.pinned_cost.is_none_or(|p| p == *cost)
                }
                None => t.pinned_cost.is_none(),
            };
            ok.then_some(answer)
        })
        .collect()
}

/// `found` must match the pinned count for the named seeds; for any
/// seed it must sit within 5σ of the exact population share, 1/4
/// (1260 of 5040 NOT-free classes have cost ≤ 7, Table 2, and each
/// class has 8 NOT cosets).
fn found_guard(report: &mut Report, seed: u64, found: usize) {
    let pinned = match seed {
        DEFAULT_SEED => Some(FOUND_AT_DEFAULT_SEED),
        HELD_OUT_SEED => Some(FOUND_AT_HELD_OUT_SEED),
        _ => None,
    };
    if let Some(want) = pinned {
        report.guard(
            found == want,
            &format!("seed {seed}: {found} found, pinned {want}"),
        );
    }
    let share = found.saturating_sub(3) as f64 / DRAWS as f64;
    let sigma = (0.25 * 0.75 / DRAWS as f64).sqrt();
    report.guard(
        (share - 0.25).abs() <= 5.0 * sigma,
        &format!("found share {share} is not within 5σ of 1/4"),
    );
}

fn count_failed(answers: &[Option<Option<(u32, Circuit)>>]) -> u64 {
    answers.iter().filter(|a| a.is_none()).count() as u64
}

fn count_found(answers: &[Option<Option<(u32, Circuit)>>]) -> usize {
    answers
        .iter()
        .filter(|a| matches!(a, Some(Some(_))))
        .count()
}

pub fn run(snapshot: &Path, seed: u64, seconds: Duration) -> Result<Report, String> {
    let mut report = Report::new();
    let threads = mvq_core::resolve_threads(None);
    let (mut engine, load, prepare) = setup(snapshot, threads)?;
    let mut setups = vec![load + prepare];
    let targets = targets(seed);
    let answers = verified_answers(&engine, &targets);
    found_guard(&mut report, seed, count_found(&answers));
    let a_size = engine.a_size();
    let unexpanded =
        |e: &SynthesisEngine| e.completed_cost() == Some(SNAPSHOT_CB) && e.a_size() == a_size;
    let mut stayed_warm = true;

    let (round_count, round_len) = round_plan(seconds, ROUND);
    let mut rounds = Rounds::default();
    let mut latencies = Vec::new();
    let mut i = 0usize;
    // Every `SETUP_EVERY` rounds the engine is replaced by a freshly set
    // up one, so `setup_s` samples the whole run with one engine
    // resident at a time.
    for round in 1..=round_count {
        if round % SETUP_EVERY == 0 {
            stayed_warm &= unexpanded(&engine);
            drop(engine);
            let (fresh, load, prepare) = setup(snapshot, threads)?;
            setups.push(load + prepare);
            engine = fresh;
        }
        latencies.clear();
        let start = Instant::now();
        while latencies.is_empty() || start.elapsed() < round_len {
            let t = i % targets.len();
            i += 1;
            let (time, answer) = timed(|| query(&engine, &targets[t].perm));
            latencies.push(time);
            let same = answers[t].is_some() && answer.as_ref() == answers[t].as_ref();
            report.failed += u64::from(!same);
        }
        rounds.record(&mut latencies, start.elapsed());
    }
    report.attempted = i as u64;
    stayed_warm &= unexpanded(&engine);
    report.guard(stayed_warm, "synth_warm expanded the engine");
    report.note(format!(
        "synth_warm ops={i} draws={} found={}",
        targets.len(),
        count_found(&answers)
    ));
    report.metric("setup_s", quantile(&mut setups, 0.5).as_secs_f64(), "s");
    report.rounds(&mut rounds);
    Ok(report)
}

/// The traced breakdown: set-up split into load and prepare; one pass
/// under a counting probe for the exact found share and backward depth;
/// then each target on the default engine and on a 1-thread engine, in
/// alternating order, for query time by outcome and the cost of the
/// parallel join.
pub fn traced(snapshot: &Path, seed: u64, budget: Duration) -> Result<Report, String> {
    let mut report = Report::new();
    let threads = mvq_core::resolve_threads(None);
    let (mut loads, mut prepares) = (Vec::new(), Vec::new());
    let mut engine = None;
    for _ in 0..SETUP_REPEATS {
        let (e, load, prepare) = setup(snapshot, threads)?;
        loads.push(load);
        prepares.push(prepare);
        engine = Some(e);
    }
    let mut engine = engine.expect("at least one set-up");
    let (single, _, _) = setup(snapshot, 1)?;

    let targets = targets(seed);
    let counting = Arc::new(CountingProbe::default());
    engine.set_probe(ProbeHandle::new(counting.clone()));
    let answers = verified_answers(&engine, &targets);
    engine.set_probe(ProbeHandle::none());
    let found = count_found(&answers);
    found_guard(&mut report, seed, found);
    report.attempted += targets.len() as u64;
    report.failed += count_failed(&answers);

    let (mut found_times, mut none_times) = (Vec::new(), Vec::new());
    let (mut default_total, mut single_total) = (Duration::ZERO, Duration::ZERO);
    let start = Instant::now();
    let mut i = 0usize;
    while i < targets.len() || start.elapsed() < budget {
        let t = i % targets.len();
        let single_first = i % 2 == 1;
        i += 1;
        let mut single_answer = None;
        if single_first {
            let (time, answer) = timed(|| query(&single, &targets[t].perm));
            single_total += time;
            single_answer = Some(answer);
        }
        let (time, answer) = timed(|| query(&engine, &targets[t].perm));
        default_total += time;
        if !single_first {
            let (time, answer) = timed(|| query(&single, &targets[t].perm));
            single_total += time;
            single_answer = Some(answer);
        }
        match &answer {
            Some(Some(_)) => found_times.push(time),
            _ => none_times.push(time),
        }
        report.attempted += 2;
        for a in [answer, single_answer.expect("both engines ran")] {
            report.failed += u64::from(answers[t].is_none() || a.as_ref() != answers[t].as_ref());
        }
    }
    report.note(format!("synth_warm traced: {i} targets on both engines"));
    report.metric("snapshot.load_ms", ms(quantile(&mut loads, 0.5)), "ms");
    report.metric("mitm.prepare_ms", ms(quantile(&mut prepares, 0.5)), "ms");
    report.metric(
        "mitm.query_found_us_p50",
        us(quantile(&mut found_times, 0.5)),
        "us",
    );
    report.metric(
        "mitm.query_none_us_p50",
        us(quantile(&mut none_times, 0.5)),
        "us",
    );
    report.metric(
        "mitm.found_frac",
        found as f64 / targets.len() as f64,
        "ratio",
    );
    report.metric(
        "mitm.backward_levels_mean",
        counting.backward_levels_mean(),
        "levels",
    );
    report.metric(
        "par.join_overhead_pct",
        (default_total.as_secs_f64() / single_total.as_secs_f64() - 1.0) * 100.0,
        "%",
    );
    Ok(report)
}
