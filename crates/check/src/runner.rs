//! The property runner: deterministic case generation and greedy
//! shrinking. A failure prints its case seed and shrunk input; pin it
//! as a fixed test that runs that input through the property.

use crate::gen::Gen;
use crate::tree::Tree;
use crate::CaseError;
use hpm_rand::{Rng, SmallRng};
use std::fmt::Debug;

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

/// Runs one property over its deterministic cases.
pub struct Runner {
    config: Config,
    name: String,
}

impl Runner {
    /// Creates a runner for the property `name`, configured from the
    /// environment; the name seeds the property's case stream.
    pub fn new(name: &str) -> Self {
        Runner {
            config: Config::from_env(),
            name: name.to_string(),
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

    /// Runs the property over the configured number of cases.
    ///
    /// # Panics
    /// Panics with the case seed and the shrunk counterexample on the
    /// first failing case.
    pub fn run<T, P>(&self, gen: Gen<T>, prop: P)
    where
        T: Clone + Debug + 'static,
        P: Fn(&T) -> Result<(), CaseError>,
    {
        let mut master = SmallRng::seed_from_u64(self.config.seed ^ fnv1a(self.name.as_bytes()));
        let mut accepted = 0u32;
        let mut discarded = 0u32;
        let discard_budget = self.config.cases.saturating_mul(20);
        while accepted < self.config.cases {
            let case_seed = master.next_u64();
            if self.run_case(&gen, &prop, case_seed) {
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
    fn run_case<T, P>(&self, gen: &Gen<T>, prop: &P, case_seed: u64) -> bool
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
                panic!(
                    "property '{}' failed.\n  seed: 0x{case_seed:016x} \
                     (master seed 0x{:016x}, HPM_CHECK_SEED)\n  \
                     minimal case (after {evals} shrink evals): {value:?}\n  error: {msg}",
                    self.name, self.config.seed,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{int, vec};

    fn runner(name: &str) -> Runner {
        Runner {
            config: Config {
                cases: 64,
                seed: DEFAULT_SEED,
                max_shrink_evals: 2048,
            },
            name: name.to_string(),
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
    fn failure_names_its_case_seed() {
        let result = std::panic::catch_unwind(|| {
            runner("seeded").run(int(0u32..1000), |&v| {
                if v < 10 {
                    Ok(())
                } else {
                    Err(CaseError::Fail("big".into()))
                }
            });
        });
        let msg = *result.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("seed: 0x"), "{msg}");
        assert!(msg.contains(&format!("{DEFAULT_SEED:016x}")), "{msg}");
    }

    #[test]
    fn too_many_discards_panic() {
        let result = std::panic::catch_unwind(|| {
            runner("all_discarded").run(int(0u32..100), |_| Err(CaseError::Discard));
        });
        let msg = *result.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("discards"), "{msg}");
    }
}
