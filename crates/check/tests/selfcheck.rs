//! End-to-end checks of the `props!` macro surface from an external
//! crate, the way the workspace test suites consume it.

use hpm_check::prelude::*;

props! {
    fn addition_commutes(a in int(-1_000i64..1_000), b in int(-1_000i64..1_000)) {
        require_eq!(a + b, b + a);
    }

    fn sort_is_idempotent(mut v in vec(int(0u32..100), 0..32)) {
        v.sort_unstable();
        let once = v.clone();
        v.sort_unstable();
        require_eq!(v, once);
    }

    fn floats_stay_in_range(x in float(-4.0..4.0)) {
        require!((-4.0..4.0).contains(&x), "{x} escaped the range");
    }

    fn assume_filters_without_failing(n in int(0u32..100)) {
        assume!(n % 3 == 0);
        require_eq!(n % 3, 0);
    }

    fn index_addresses_collection(v in vec(int(0u8..=255), 1..20), ix in index()) {
        let picked = v[ix.index(v.len())];
        require!(v.contains(&picked));
    }

    fn choice_yields_known_value(w in choice(vec![1u32, 5, 9])) {
        require!(w == 1 || w == 5 || w == 9);
        require_ne!(w, 0);
    }

    #[cases(128)]
    fn case_floor_attribute_compiles(x in int(0u8..=255), tag in just("fixed")) {
        require_eq!(tag, "fixed");
        let _ = x;
    }
}

// Plain #[test]s can sit next to props! blocks in the same file.
#[test]
fn failing_property_panics_with_minimal_case() {
    let result = std::panic::catch_unwind(|| {
        hpm_check::Runner::new("external_shrink").run(hpm_check::int(0u32..10_000), |&v| {
            if v < 128 {
                Ok(())
            } else {
                Err(hpm_check::CaseError::Fail("too big".into()))
            }
        });
    });
    let msg = *result.unwrap_err().downcast::<String>().unwrap();
    assert!(msg.contains(": 128"), "expected shrink to 128, got: {msg}");
}

#[test]
fn library_panics_are_caught_and_shrunk() {
    let result = std::panic::catch_unwind(|| {
        hpm_check::Runner::new("external_panic").run(
            hpm_check::vec(hpm_check::int(0u32..100), 0..20),
            |v| {
                // An out-of-bounds index panics instead of returning Fail.
                if v.len() >= 3 {
                    let _ = v[v.len() + 1];
                }
                Ok(())
            },
        );
    });
    let msg = *result.unwrap_err().downcast::<String>().unwrap();
    assert!(msg.contains("panic"), "{msg}");
}
