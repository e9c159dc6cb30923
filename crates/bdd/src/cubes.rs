//! Satisfying-cube enumeration.
//!
//! The `Ξ(c)` test oracle (paper §4.4) decodes the valid-rewiring
//! characteristic into explicit choices through its path cubes. A cube
//! here is a partial assignment: a conjunction of literals.

use crate::{Bdd, BddManager};

/// A cube: a conjunction of literals, stored as `(variable, phase)` pairs
/// sorted by variable.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Cube {
    literals: Vec<(u32, bool)>,
}

impl Cube {
    /// The literals of this cube, sorted by variable.
    pub fn literals(&self) -> &[(u32, bool)] {
        &self.literals
    }

    /// The phase of `var` in this cube, if present.
    pub fn phase(&self, var: u32) -> Option<bool> {
        self.literals
            .iter()
            .find(|&&(v, _)| v == var)
            .map(|&(_, p)| p)
    }
}

impl BddManager {
    /// Enumerates the path cubes of `f`: a disjoint cover of its on-set.
    ///
    /// At most `limit` cubes are returned (the enumeration is cut off, not
    /// an error, so callers can seed candidate lists from huge functions).
    pub fn sat_cubes(&self, f: Bdd, limit: usize) -> Vec<Cube> {
        let mut out = Vec::new();
        let mut path: Vec<(u32, bool)> = Vec::new();
        self.sat_cubes_rec(f, &mut path, &mut out, limit);
        out
    }

    fn sat_cubes_rec(
        &self,
        f: Bdd,
        path: &mut Vec<(u32, bool)>,
        out: &mut Vec<Cube>,
        limit: usize,
    ) {
        if out.len() >= limit {
            return;
        }
        if f == self.zero() {
            return;
        }
        if f == self.one() {
            // A path visits variables root to leaf, so in ascending order.
            out.push(Cube {
                literals: path.clone(),
            });
            return;
        }
        let v = self.root_var(f).expect("non-terminal");
        path.push((v, false));
        self.sat_cubes_rec(self.low(f), path, out, limit);
        path.pop();
        path.push((v, true));
        self.sat_cubes_rec(self.high(f), path, out, limit);
        path.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The conjunction of a cube's literals.
    fn cube_bdd(m: &mut BddManager, cube: &Cube) -> Bdd {
        let mut f = m.one();
        for &(v, phase) in cube.literals() {
            let lit = if phase { m.var(v) } else { m.nvar(v) };
            f = m.and(f, lit).unwrap();
        }
        f
    }

    #[test]
    fn cube_construction() {
        let mut m = BddManager::new();
        let a = m.var(0);
        let c = m.var(2);
        let na = m.not(a).unwrap();
        let f = m.and(c, na).unwrap();
        let cubes = m.sat_cubes(f, 10);
        assert_eq!(cubes.len(), 1);
        assert_eq!(cubes[0].literals(), &[(0, false), (2, true)]);
        assert_eq!(cubes[0].phase(2), Some(true));
        assert_eq!(cubes[0].phase(0), Some(false));
        assert_eq!(cubes[0].phase(1), None);
    }

    #[test]
    fn sat_cubes_cover_on_set() {
        let mut m = BddManager::new();
        let a = m.var(0);
        let b = m.var(1);
        let c = m.var(2);
        let ab = m.and(a, b).unwrap();
        let f = m.or(ab, c).unwrap();
        let cubes = m.sat_cubes(f, 100);
        // Union of cubes equals f.
        let mut cover = m.zero();
        for cube in &cubes {
            let cb = cube_bdd(&mut m, cube);
            cover = m.or(cover, cb).unwrap();
        }
        assert_eq!(cover, f);
    }

    #[test]
    fn sat_cubes_limit_respected() {
        let mut m = BddManager::new();
        let mut f = m.zero();
        for i in 0..8 {
            let v = m.var(i);
            f = m.xor(f, v).unwrap();
        }
        let cubes = m.sat_cubes(f, 5);
        assert_eq!(cubes.len(), 5);
    }
}
