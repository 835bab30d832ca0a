//! Every lattice implementation satisfies the lattice laws, checked on
//! every triple of a universe: all of `TwoPoint`, and for `Subset64` and
//! `SecurityLevel` (at every classification) category sets that pin the
//! edges, plus seeded wide values with their meet and join.

use core::fmt::Debug;
use sep_model::rng::SplitMix64;
use sep_policy::lattice::{Lattice, Subset64, TwoPoint};
use sep_policy::level::{CategorySet, Classification, SecurityLevel};

fn category_sets() -> Vec<u64> {
    let mut rng = SplitMix64::new(0x1A77);
    let (x, y) = (rng.next_u64(), rng.next_u64());
    vec![0, 1, 0b11, 1 << 63, u64::MAX, x, y, x & y, x | y]
}

fn levels() -> Vec<SecurityLevel> {
    let level = |r, c| SecurityLevel::new(Classification::from_rank(r).unwrap(), CategorySet(c));
    let sets = category_sets();
    let all = (0..4).flat_map(|r| sets.iter().map(move |&c| level(r, c)));
    all.collect()
}

fn subsets() -> Vec<Subset64> {
    category_sets().into_iter().map(Subset64).collect()
}

fn le<T: Lattice>(a: T, b: T) -> bool {
    Lattice::le(&a, &b)
}

/// Asserts `law` on every triple of `universe`.
fn for_all<T: Copy + Debug>(universe: &[T], law: impl Fn(T, T, T) -> bool) {
    for &a in universe {
        for &b in universe {
            for &c in universe {
                assert!(law(a, b, c), "{a:?} {b:?} {c:?}");
            }
        }
    }
}

macro_rules! lattice_laws {
    ($modname:ident, $universe:expr) => {
        mod $modname {
            use super::*;

            #[test]
            fn le_reflexive() {
                for_all(&$universe, |a, _, _| le(a, a));
            }

            #[test]
            fn le_antisymmetric() {
                for_all(&$universe, |a, b, _| !(le(a, b) && le(b, a)) || a == b);
            }

            #[test]
            fn le_transitive() {
                for_all(&$universe, |a, b, c| !(le(a, b) && le(b, c)) || le(a, c));
            }

            #[test]
            fn lub_is_least_upper_bound() {
                for_all(&$universe, |a, b, c| {
                    let j = a.lub(&b);
                    le(a, j) && le(b, j) && (!(le(a, c) && le(b, c)) || le(j, c))
                });
            }

            #[test]
            fn glb_is_greatest_lower_bound() {
                for_all(&$universe, |a, b, c| {
                    let m = a.glb(&b);
                    le(m, a) && le(m, b) && (!(le(c, a) && le(c, b)) || le(c, m))
                });
            }

            #[test]
            fn lub_commutative_idempotent() {
                for_all(&$universe, |a, b, _| {
                    a.lub(&b) == b.lub(&a)
                        && a.lub(&a) == a
                        && a.glb(&b) == b.glb(&a)
                        && a.glb(&a) == a
                });
            }

            #[test]
            fn lub_associative() {
                for_all(&$universe, |a, b, c| {
                    a.lub(&b).lub(&c) == a.lub(&b.lub(&c)) && a.glb(&b).glb(&c) == a.glb(&b.glb(&c))
                });
            }

            #[test]
            fn bounds() {
                for_all(&$universe, |a, _, _| {
                    le(Lattice::bottom(), a) && le(a, Lattice::top())
                });
            }

            #[test]
            fn absorption() {
                for_all(&$universe, |a, b, _| {
                    a.lub(&a.glb(&b)) == a && a.glb(&a.lub(&b)) == a
                });
            }
        }
    };
}

lattice_laws!(security_level, levels());
lattice_laws!(subset64, subsets());
lattice_laws!(two_point, [TwoPoint::Low, TwoPoint::High]);
