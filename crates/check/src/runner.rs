//! The property runner: deterministic case generation, regression-seed
//! replay, greedy shrinking, and failure persistence.

use crate::gen::Gen;
use crate::tree::Tree;
use crate::CaseError;
use hpm_rand::{Rng, SmallRng};
use std::fmt::Debug;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Default deterministic cases per property (raise with
/// `HPM_CHECK_CASES`).
pub const DEFAULT_CASES: u32 = 64;

/// Default master seed (override with `HPM_CHECK_SEED`). Every property
/// derives its own stream from this and its name, so suites are stable
/// under test reordering.
pub const DEFAULT_SEED: u64 = 0x4850_4D43_4845_434B; // "HPMCHECK"

/// Runner configuration, read from the environment.
#[derive(Debug, Clone)]
pub struct Config {
    /// Deterministic cases per property (`HPM_CHECK_CASES`, default 64).
    pub cases: u32,
    /// Master seed (`HPM_CHECK_SEED`, decimal or 0x-hex).
    pub seed: u64,
    /// Cap on shrink-candidate evaluations (`HPM_CHECK_SHRINKS`).
    pub max_shrink_evals: u32,
    /// Persist new failure seeds to the regression file
    /// (`HPM_CHECK_PERSIST=0` disables).
    pub persist: bool,
}

impl Config {
    /// Reads the configuration from the environment.
    pub fn from_env() -> Self {
        let parse_u64 = |key: &str, default: u64| {
            std::env::var(key)
                .ok()
                .and_then(|v| {
                    let v = v.trim();
                    if let Some(hex) = v.strip_prefix("0x") {
                        u64::from_str_radix(hex, 16).ok()
                    } else {
                        v.parse().ok()
                    }
                })
                .unwrap_or(default)
        };
        Config {
            cases: parse_u64("HPM_CHECK_CASES", u64::from(DEFAULT_CASES)).max(1) as u32,
            seed: parse_u64("HPM_CHECK_SEED", DEFAULT_SEED),
            max_shrink_evals: parse_u64("HPM_CHECK_SHRINKS", 2048) as u32,
            persist: std::env::var("HPM_CHECK_PERSIST").map_or(true, |v| v != "0"),
        }
    }
}

/// FNV-1a — stable name/token hashing for per-property streams. (Own
/// copy: `hpm-store`, home of the workspace one, depends on this crate.)
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Runs one property: regression replay first, then fresh cases.
pub struct Runner {
    config: Config,
    name: String,
    regression_file: PathBuf,
}

impl Runner {
    /// Creates a runner for the property `name` defined in the test
    /// source `file` (pass `file!()`) of the crate at `manifest_dir`
    /// (pass `env!("CARGO_MANIFEST_DIR")`). The pair is needed because
    /// `file!()` is workspace-relative while tests run from the crate
    /// root — see `resolve_source` in this module.
    pub fn new(manifest_dir: &str, file: &str, name: &str) -> Self {
        let source = resolve_source(manifest_dir, file);
        let stem = source
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "props".to_string());
        let regression_file = source.with_file_name(format!("{stem}.proptest-regressions"));
        Runner {
            config: Config::from_env(),
            name: name.to_string(),
            regression_file,
        }
    }

    /// Overrides the case count (tests of the harness itself).
    pub fn cases(mut self, cases: u32) -> Self {
        self.config.cases = cases;
        self
    }

    /// Raises the case count to at least `cases`, without lowering an
    /// `HPM_CHECK_CASES` override (the `#[cases(n)]` macro attribute).
    pub fn min_cases(mut self, cases: u32) -> Self {
        self.config.cases = self.config.cases.max(cases);
        self
    }

    /// Disables failure persistence (tests of the harness itself).
    pub fn no_persist(mut self) -> Self {
        self.config.persist = false;
        self
    }

    /// Runs the property over the configured number of cases, replaying
    /// any persisted regression seeds first.
    ///
    /// # Panics
    /// Panics with the shrunk counterexample on the first failing case.
    pub fn run<T, P>(&self, gen: Gen<T>, prop: P)
    where
        T: Clone + Debug + 'static,
        P: Fn(&T) -> Result<(), CaseError>,
    {
        // 1. Regression seeds recorded by earlier failures.
        for seed in read_regression_seeds(&self.regression_file) {
            self.run_case(&gen, &prop, seed, true);
        }

        // 2. Fresh deterministic cases.
        let mut master = SmallRng::seed_from_u64(self.config.seed ^ fnv1a(self.name.as_bytes()));
        let mut accepted = 0u32;
        let mut discarded = 0u32;
        let discard_budget = self.config.cases.saturating_mul(20);
        while accepted < self.config.cases {
            let case_seed = master.next_u64();
            if self.run_case(&gen, &prop, case_seed, false) {
                accepted += 1;
            } else {
                discarded += 1;
                assert!(
                    discarded <= discard_budget,
                    "property '{}': {} discards for {} accepted cases — \
                     weaken the assume!() or tighten the generator",
                    self.name,
                    discarded,
                    accepted
                );
            }
        }
    }

    /// Runs one case; returns `false` when the case was discarded.
    fn run_case<T, P>(&self, gen: &Gen<T>, prop: &P, case_seed: u64, from_regression: bool) -> bool
    where
        T: Clone + Debug + 'static,
        P: Fn(&T) -> Result<(), CaseError>,
    {
        let mut rng = SmallRng::seed_from_u64(case_seed);
        let tree = gen.generate(&mut rng);
        match eval(prop, &tree.value) {
            Ok(()) => true,
            Err(CaseError::Discard) => false,
            Err(CaseError::Fail(msg)) => {
                let (value, msg, evals) = self.shrink(tree, msg, prop);
                if self.config.persist && !from_regression {
                    persist_seed(&self.regression_file, case_seed, &value);
                }
                panic!(
                    "property '{}' failed{}.\n  seed: 0x{case_seed:016x}\n  \
                     minimal case (after {evals} shrink evals): {value:?}\n  error: {msg}\n  \
                     replayed automatically from {}",
                    self.name,
                    if from_regression {
                        " (persisted regression seed)"
                    } else {
                        ""
                    },
                    self.regression_file.display(),
                );
            }
        }
    }

    /// Greedy descent: repeatedly move to the first shrink candidate
    /// that still fails, until none does or the eval budget runs out.
    fn shrink<T, P>(&self, mut current: Tree<T>, mut msg: String, prop: &P) -> (T, String, u32)
    where
        T: Clone + Debug + 'static,
        P: Fn(&T) -> Result<(), CaseError>,
    {
        let mut evals = 0u32;
        'descend: loop {
            for child in current.children() {
                if evals >= self.config.max_shrink_evals {
                    break 'descend;
                }
                evals += 1;
                if let Err(CaseError::Fail(m)) = eval(prop, &child.value) {
                    current = child;
                    msg = m;
                    continue 'descend;
                }
            }
            break;
        }
        (current.value, msg, evals)
    }
}

/// Evaluates the property on one value, converting panics (library
/// `assert!`s, index errors, …) into case failures so they shrink like
/// explicit `require!` failures.
fn eval<T, P>(prop: &P, value: &T) -> Result<(), CaseError>
where
    P: Fn(&T) -> Result<(), CaseError>,
{
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| prop(value))) {
        Ok(result) => result,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "property panicked".to_string());
            Err(CaseError::Fail(format!("panic: {msg}")))
        }
    }
}

/// Resolves `file!()` (workspace-relative at compile time) against the
/// test binary's working directory and the crate's manifest dir.
fn resolve_source(manifest_dir: &str, file: &str) -> PathBuf {
    let p = Path::new(file);
    if p.exists() {
        return p.to_path_buf();
    }
    let manifest = Path::new(manifest_dir);
    let joined = manifest.join(p);
    if joined.exists() {
        return joined;
    }
    // `file!()` is rooted at the *workspace*, the manifest dir at the
    // *crate*: drop leading components until the suffix resolves.
    let mut components: Vec<_> = p.components().collect();
    while components.len() > 1 {
        components.remove(0);
        let suffix: PathBuf = components.iter().collect();
        let candidate = manifest.join(&suffix);
        if candidate.exists() {
            return candidate;
        }
    }
    joined
}

/// Parses a `*.proptest-regressions` file into replay seeds.
///
/// The `proptest` format is `cc <64 hex chars> # shrinks to …` per
/// line. The leading 16 hex chars are taken as the replay seed, so
/// seeds this harness persists round-trip exactly, and seeds inherited
/// from `proptest` runs still replay a deterministic (if different)
/// case.
pub fn read_regression_seeds(path: &Path) -> Vec<u64> {
    let Ok(content) = fs::read_to_string(path) else {
        return Vec::new();
    };
    content
        .lines()
        .filter_map(|line| {
            let token = line.trim().strip_prefix("cc ")?.split_whitespace().next()?;
            if token.len() < 16 {
                return Some(fnv1a(token.as_bytes()));
            }
            u64::from_str_radix(&token[..16], 16)
                .ok()
                .or_else(|| Some(fnv1a(token.as_bytes())))
        })
        .collect()
}

/// Appends a failing seed in the `proptest` regression format (the
/// trailing 48 hex chars are zero padding; only the first 16 encode the
/// seed).
fn persist_seed<T: Debug>(path: &Path, seed: u64, shrunk: &T) {
    let token = format!("{seed:016x}{:048}", 0);
    if let Ok(existing) = fs::read_to_string(path) {
        if existing
            .lines()
            .any(|l| l.trim().starts_with(&format!("cc {token}")))
        {
            return;
        }
    }
    let header_needed = !path.exists();
    let Ok(mut f) = fs::OpenOptions::new().create(true).append(true).open(path) else {
        return; // read-only checkout: the panic message still has the seed
    };
    if header_needed {
        let _ = writeln!(
            f,
            "# Seeds for failure cases proptest has generated in the past. It is\n\
             # automatically read and these particular cases re-run before any\n\
             # novel cases are generated.\n\
             #\n\
             # It is recommended to check this file in to source control so that\n\
             # everyone who runs the test benefits from these saved cases."
        );
    }
    let mut line = format!("cc {token} # shrinks to {shrunk:?}");
    line.truncate(800); // keep the file reviewable for huge cases
    let _ = writeln!(f, "{line}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{int, vec};

    fn temp_dir() -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "hpm_check_{}_{:x}",
            std::process::id(),
            fnv1a(std::thread::current().name().unwrap_or("t").as_bytes())
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn runner(name: &str) -> Runner {
        Runner {
            config: Config {
                cases: 64,
                seed: DEFAULT_SEED,
                max_shrink_evals: 2048,
                persist: false,
            },
            name: name.to_string(),
            regression_file: temp_dir().join("props.proptest-regressions"),
        }
    }

    #[test]
    fn passing_property_runs_quietly() {
        runner("pass").run(int(0u32..100), |&v| {
            if v < 100 {
                Ok(())
            } else {
                Err(CaseError::Fail("impossible".into()))
            }
        });
    }

    #[test]
    fn failing_property_shrinks_to_boundary() {
        let result = std::panic::catch_unwind(|| {
            runner("shrink_int").run(int(0u32..1000), |&v| {
                if v < 50 {
                    Ok(())
                } else {
                    Err(CaseError::Fail(format!("{v} too big")))
                }
            });
        });
        let msg = *result.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("minimal case"), "{msg}");
        assert!(msg.contains(": 50"), "greedy shrink should reach 50: {msg}");
    }

    #[test]
    fn failing_vec_shrinks_small() {
        let result = std::panic::catch_unwind(|| {
            runner("shrink_vec").run(vec(int(0u32..100), 0..40), |v| {
                if v.iter().any(|&x| x >= 90) {
                    Err(CaseError::Fail("has a large element".into()))
                } else {
                    Ok(())
                }
            });
        });
        let msg = *result.unwrap_err().downcast::<String>().unwrap();
        // Minimal counterexample: exactly one element, exactly 90.
        assert!(msg.contains("[90]"), "{msg}");
    }

    #[test]
    fn discards_do_not_count_as_cases() {
        let mut ran = 0u32;
        let counter = std::cell::Cell::new(0u32);
        runner("discards").run(int(0u32..100), |&v| {
            if v % 2 == 0 {
                counter.set(counter.get() + 1);
                Ok(())
            } else {
                Err(CaseError::Discard)
            }
        });
        ran += counter.get();
        assert_eq!(ran, 64, "exactly `cases` accepted cases");
    }

    #[test]
    fn persisted_seed_replays_same_case() {
        let dir = temp_dir();
        let path = dir.join("replay.proptest-regressions");
        let _ = fs::remove_file(&path);
        persist_seed(&path, 0xDEAD_BEEF_0123_4567, &"x");
        let seeds = read_regression_seeds(&path);
        assert_eq!(seeds, vec![0xDEAD_BEEF_0123_4567]);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn proptest_native_seed_lines_parse() {
        let dir = temp_dir();
        let path = dir.join("native.proptest-regressions");
        fs::write(
            &path,
            "# comment line\n\
             cc 86ec72848a6630af31d0ffba7f1c72c4e8ae304dd53800e4a0714c6a11fb0368 # shrinks to x = 1\n",
        )
        .unwrap();
        let seeds = read_regression_seeds(&path);
        assert_eq!(seeds, vec![0x86ec72848a6630af]);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn failure_persists_and_then_replays() {
        let dir = temp_dir();
        let path = dir.join("cycle.proptest-regressions");
        let _ = fs::remove_file(&path);
        let mk = |persist| Runner {
            config: Config {
                cases: 64,
                seed: DEFAULT_SEED,
                max_shrink_evals: 2048,
                persist,
            },
            name: "cycle".to_string(),
            regression_file: path.clone(),
        };
        let result = std::panic::catch_unwind(|| {
            mk(true).run(int(0u32..1000), |&v| {
                if v < 10 {
                    Ok(())
                } else {
                    Err(CaseError::Fail("big".into()))
                }
            });
        });
        assert!(result.is_err());
        assert!(path.exists(), "failure seed persisted");
        let content = fs::read_to_string(&path).unwrap();
        assert!(content.contains("# shrinks to 10"), "{content}");
        // Replay: the persisted seed fires before fresh cases, and a
        // now-passing property sails through replay.
        let result = std::panic::catch_unwind(|| {
            mk(false).run(int(0u32..1000), |&_v| Ok(()));
        });
        assert!(result.is_ok());
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn too_many_discards_panic() {
        let result = std::panic::catch_unwind(|| {
            runner("all_discarded").run(int(0u32..100), |_| Err(CaseError::Discard));
        });
        let msg = *result.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("discards"), "{msg}");
    }

    #[test]
    fn resolve_source_strips_workspace_prefix() {
        // This very file resolves from its manifest dir + file!().
        let path = resolve_source(env!("CARGO_MANIFEST_DIR"), file!());
        assert!(path.exists(), "{}", path.display());
        assert!(path.ends_with("src/runner.rs"));
    }
}
