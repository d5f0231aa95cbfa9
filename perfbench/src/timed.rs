//! The untraced run: set-up, then timed passes over the workload's cells
//! for the requested number of seconds. Gives the end-to-end metrics.

use crate::cells::{expected_commits, sweep_options, Ledger, Workload};
use puno_harness::cache::CacheStats;
use puno_harness::sweep::{try_sweep, CellOutcome};
use puno_harness::{ResultCache, System, SystemConfig};
use puno_workloads::{ProgramSet, WorkloadId, WorkloadParams};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-up runs from scratch at least this many times, and until this long
/// has passed; `setup_s` is the median. Repeating a cheap set-up many times
/// keeps its median steady.
const SETUP_MIN_REPEATS: usize = 3;
const SETUP_MIN_TIME: Duration = Duration::from_secs(1);

/// Generated programs per `(seed, workload)`.
pub type Inputs = BTreeMap<(u64, WorkloadId), ProgramSet>;

/// What a run measured.
pub struct Timed {
    pub setup_s: f64,
    /// Host seconds of each timed pass.
    pub pass_walls: Vec<f64>,
    /// Simulated cycles of the cells each pass produced, per host second.
    pub pass_rates: Vec<f64>,
    pub ledger: Ledger,
}

/// Generate every program the run's cells replay, and note the commit
/// count each must reach.
pub fn generate_inputs(workload: Workload, seeds: &[u64], ledger: &mut Ledger) -> Inputs {
    let nodes = (workload.config())(workload.mechanisms()[0]).nodes();
    let mut inputs = Inputs::new();
    for &seed in seeds {
        for &w in workload.workloads() {
            let params = w.params().scaled(workload.scale());
            let programs = ProgramSet::generate(&params, nodes, seed);
            ledger.expect_commits(seed, w, expected_commits(&programs));
            inputs.insert((seed, w), programs);
        }
    }
    inputs
}

/// Sweep every seed of `workload` into one fresh result cache at `dir`:
/// the write side of the cache, and `cache_replay`'s set-up.
pub fn fill_cache(
    workload: Workload,
    seeds: &[u64],
    dir: &Path,
    ledger: &mut Ledger,
) -> Result<(), String> {
    let cache = Arc::new(ResultCache::open(dir).map_err(|e| format!("open cache {dir:?}: {e}"))?);
    for &seed in seeds {
        let outcomes = try_sweep(
            workload.workloads(),
            workload.mechanisms(),
            &sweep_options(workload, seed, cache.clone()),
        );
        for o in &outcomes {
            ledger.reference(seed, o)?;
        }
    }
    let stored = cache.stats().stores;
    let want = (seeds.len() * workload.cells()) as u64;
    if stored != want {
        return Err(format!("cache fill stored {stored} of {want} cells"));
    }
    Ok(())
}

/// Everything the timed passes need, built from the seeds.
struct Setup {
    ledger: Ledger,
    inputs: Inputs,
    /// `cache_replay`'s filled cache.
    filled: Option<PathBuf>,
}

fn setup(workload: Workload, seeds: &[u64], dir: &Path) -> Result<Setup, String> {
    let mut ledger = Ledger::default();
    let mut inputs = generate_inputs(workload, seeds, &mut ledger);
    // Sweeps generate their own programs; only the direct runs replay these.
    let filled = match workload {
        Workload::Mesh8Hc => None,
        Workload::PaperGrid => {
            inputs.clear();
            None
        }
        Workload::CacheReplay => {
            inputs.clear();
            fill_cache(workload, seeds, dir, &mut ledger)?;
            Some(dir.to_path_buf())
        }
    };
    Ok(Setup {
        ledger,
        inputs,
        filled,
    })
}

pub fn run(workload: Workload, seed: u64, seconds: u64, work: &Path) -> Result<Timed, String> {
    let seeds = workload.seeds(seed);
    let mut setups = Vec::new();
    let mut kept = None;
    let first = Instant::now();
    while setups.len() < SETUP_MIN_REPEATS || first.elapsed() < SETUP_MIN_TIME {
        let dir = work.join(format!("setup-{}", setups.len()));
        let t0 = Instant::now();
        let s = setup(workload, &seeds, &dir)?;
        setups.push(t0.elapsed().as_secs_f64());
        kept = Some(s);
    }
    let Setup {
        mut ledger,
        inputs,
        filled,
    } = kept.expect("set-up ran");

    // Passes cycle through the seeds and repeat until `seconds` have
    // passed, with every seed covered at least once.
    let min_passes = match workload {
        Workload::PaperGrid | Workload::Mesh8Hc => seeds.len(),
        Workload::CacheReplay => 3,
    };
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut sys: Option<System> = None;
    let (mut pass_walls, mut pass_rates) = (Vec::new(), Vec::new());
    let mut pass = 0usize;
    while pass < min_passes || start.elapsed() < budget {
        let seed = seeds[pass % seeds.len()];
        let (wall, cycles) = match workload {
            Workload::PaperGrid => grid_pass(
                workload,
                seed,
                &work.join(format!("pass-{pass}")),
                &mut ledger,
            )?,
            Workload::Mesh8Hc => mesh8_pass(workload, seed, &inputs, &mut sys, &mut ledger),
            Workload::CacheReplay => {
                let filled = filled.as_deref().expect("cache_replay fills a cache");
                replay_pass(
                    workload,
                    &seeds,
                    filled,
                    &work.join(format!("pass-{pass}")),
                    &mut ledger,
                )?
            }
        };
        pass_walls.push(wall);
        pass_rates.push(cycles as f64 / wall);
        pass += 1;
    }
    Ok(Timed {
        setup_s: crate::median(&setups),
        pass_walls,
        pass_rates,
        ledger,
    })
}

/// What one sweep against an on-disk result cache cost.
pub struct CachedSweep {
    pub open_s: f64,
    pub sweep_s: f64,
    pub outcomes: Vec<CellOutcome>,
    pub stats: CacheStats,
}

/// Open the result cache at `dir` and sweep one seed of `workload` through
/// it, as `sweep_all` does; the outcomes are checked into `ledger`. With
/// `replayed`, every cell must be a hit returning the stored record.
pub fn cached_sweep(
    workload: Workload,
    seed: u64,
    dir: &Path,
    replayed: bool,
    ledger: &mut Ledger,
) -> Result<CachedSweep, String> {
    let t0 = Instant::now();
    let cache = Arc::new(ResultCache::open(dir).map_err(|e| format!("open cache {dir:?}: {e}"))?);
    let open_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let outcomes = try_sweep(
        workload.workloads(),
        workload.mechanisms(),
        &sweep_options(workload, seed, cache.clone()),
    );
    let sweep_s = t1.elapsed().as_secs_f64();
    let stats = cache.stats();
    let cells = workload.cells() as u64;
    let (hits, stores) = if replayed { (cells, 0) } else { (0, cells) };
    let sweep_error = (stats.hits != hits || stats.stores != stores).then(|| {
        format!(
            "sweep of seed {seed}: {} hits and {} stores, expected {hits} and {stores}",
            stats.hits, stats.stores
        )
    });
    ledger.record_sweep(seed, &outcomes, replayed, sweep_error);
    Ok(CachedSweep {
        open_s,
        sweep_s,
        outcomes,
        stats,
    })
}

/// One cold sweep of the grid into a fresh cache.
fn grid_pass(
    workload: Workload,
    seed: u64,
    dir: &Path,
    ledger: &mut Ledger,
) -> Result<(f64, u64), String> {
    let s = cached_sweep(workload, seed, dir, false, ledger)?;
    let _ = std::fs::remove_dir_all(dir);
    Ok((s.open_s + s.sweep_s, sum_cycles(&s.outcomes)))
}

/// Make `sys` ready to run a cell: recycled through `System::reset` when
/// one exists (as a sweep worker does), constructed otherwise, with the
/// serial executor and the NoC express path pinned to their defaults.
pub fn prepare_system<'a>(
    sys: &'a mut Option<System>,
    config: SystemConfig,
    params: &WorkloadParams,
    seed: u64,
    programs: &ProgramSet,
) -> &'a mut System {
    let s = match sys {
        Some(s) => {
            s.reset(config, params, seed, programs);
            s
        }
        None => sys.insert(System::new_shared(config, params, seed, programs)),
    };
    s.set_run_threads(1);
    s.set_noc_express(true);
    s
}

/// The cells of one seed, run straight through one recycled `System`.
fn mesh8_pass(
    workload: Workload,
    seed: u64,
    inputs: &Inputs,
    sys: &mut Option<System>,
    ledger: &mut Ledger,
) -> (f64, u64) {
    let mut cycles = 0;
    let mut wall = 0.0;
    for &w in workload.workloads() {
        let params = w.params().scaled(workload.scale());
        let programs = &inputs[&(seed, w)];
        for &mech in workload.mechanisms() {
            let t0 = Instant::now();
            let result = prepare_system(sys, (workload.config())(mech), &params, seed, programs)
                .try_run_recycled();
            wall += t0.elapsed().as_secs_f64();
            if let Ok(m) = &result {
                cycles += m.cycles;
            }
            ledger.record(
                seed,
                w,
                mech,
                result.as_ref().map_err(|e| format!("{e:?}")),
                false,
            );
        }
    }
    (wall, cycles)
}

/// Reopen a copy of the filled cache once per seed and replay that seed's
/// sweep from it, as a warm `sweep_all` does. Every cell must be a hit.
fn replay_pass(
    workload: Workload,
    seeds: &[u64],
    filled: &Path,
    dir: &Path,
    ledger: &mut Ledger,
) -> Result<(f64, u64), String> {
    copy_dir(filled, dir)?;
    let mut wall = 0.0;
    let mut cycles = 0;
    for &seed in seeds {
        let s = cached_sweep(workload, seed, dir, true, ledger)?;
        wall += s.open_s + s.sweep_s;
        cycles += sum_cycles(&s.outcomes);
    }
    let _ = std::fs::remove_dir_all(dir);
    Ok((wall, cycles))
}

pub fn sum_cycles(outcomes: &[CellOutcome]) -> u64 {
    outcomes
        .iter()
        .filter_map(|o| o.metrics())
        .map(|m| m.cycles)
        .sum()
}

/// Copy the flat cache directory `from` to a fresh `to`.
pub fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).map_err(|e| format!("create {to:?}: {e}"))?;
    let entries = std::fs::read_dir(from).map_err(|e| format!("read {from:?}: {e}"))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read {from:?}: {e}"))?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))
            .map_err(|e| format!("copy {:?}: {e}", entry.path()))?;
    }
    Ok(())
}
