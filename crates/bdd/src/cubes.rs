//! Satisfying-cube enumeration.
//!
//! The rectification flow decodes the valid-rewiring characteristic `Ξ(c)`
//! (paper §4.4) into explicit choices through its path cubes. A cube here
//! is a partial assignment: a conjunction of literals.

use crate::{Bdd, BddError, BddManager};

/// A cube: a conjunction of literals, stored as `(variable, phase)` pairs
/// sorted by variable.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Cube {
    literals: Vec<(u32, bool)>,
}

impl Cube {
    /// Creates a cube from literal pairs; duplicates of the same phase are
    /// merged, opposite phases make the cube unsatisfiable (empty set is
    /// represented by the caller checking [`Cube::is_contradictory`]).
    pub fn new(mut literals: Vec<(u32, bool)>) -> Self {
        literals.sort_unstable();
        literals.dedup();
        Cube { literals }
    }

    /// The literals of this cube, sorted by variable.
    pub fn literals(&self) -> &[(u32, bool)] {
        &self.literals
    }

    /// Number of literals.
    pub fn len(&self) -> usize {
        self.literals.len()
    }

    /// Whether the cube has no literals (the universal cube).
    pub fn is_empty(&self) -> bool {
        self.literals.is_empty()
    }

    /// Whether the cube contains both phases of some variable.
    pub fn is_contradictory(&self) -> bool {
        self.literals
            .windows(2)
            .any(|w| w[0].0 == w[1].0 && w[0].1 != w[1].1)
    }

    /// The phase of `var` in this cube, if present.
    pub fn phase(&self, var: u32) -> Option<bool> {
        self.literals
            .iter()
            .find(|&&(v, _)| v == var)
            .map(|&(_, p)| p)
    }

    /// Builds the BDD of this cube.
    ///
    /// # Errors
    ///
    /// [`BddError::NodeLimit`] when the manager budget is exhausted.
    pub fn to_bdd(&self, m: &mut BddManager) -> Result<Bdd, BddError> {
        let mut f = m.one();
        for &(v, phase) in self.literals.iter().rev() {
            let lit = if phase { m.var(v) } else { m.nvar(v) };
            f = m.and(lit, f)?;
        }
        Ok(f)
    }
}

impl FromIterator<(u32, bool)> for Cube {
    fn from_iter<I: IntoIterator<Item = (u32, bool)>>(iter: I) -> Self {
        Cube::new(iter.into_iter().collect())
    }
}

impl BddManager {
    /// Returns one satisfying cube of `f`, or `None` when `f` is
    /// unsatisfiable. The cube mentions only the variables on the chosen
    /// path, so it may be partial.
    pub fn any_sat(&self, f: Bdd) -> Option<Cube> {
        if f == self.zero() {
            return None;
        }
        let mut lits = Vec::new();
        let mut cur = f;
        while !self.is_const(cur) {
            let v = self.root_var(cur).expect("non-terminal has a var");
            let hi = self.high(cur);
            if hi != self.zero() {
                lits.push((v, true));
                cur = hi;
            } else {
                lits.push((v, false));
                cur = self.low(cur);
            }
        }
        Some(Cube::new(lits))
    }

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
            out.push(Cube::new(path.clone()));
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

    #[test]
    fn cube_construction() {
        let c = Cube::new(vec![(2, true), (0, false), (2, true)]);
        assert_eq!(c.literals(), &[(0, false), (2, true)]);
        assert_eq!(c.len(), 2);
        assert!(!c.is_empty());
        assert!(!c.is_contradictory());
        assert_eq!(c.phase(2), Some(true));
        assert_eq!(c.phase(1), None);
        let bad: Cube = [(1, true), (1, false)].into_iter().collect();
        assert!(bad.is_contradictory());
    }

    #[test]
    fn any_sat_finds_model() {
        let mut m = BddManager::new();
        let a = m.var(0);
        let b = m.var(1);
        let nb = m.not(b).unwrap();
        let f = m.and(a, nb).unwrap();
        let cube = m.any_sat(f).unwrap();
        assert_eq!(cube.phase(0), Some(true));
        assert_eq!(cube.phase(1), Some(false));
        assert!(m.any_sat(m.zero()).is_none());
        // Satisfiable path must actually satisfy f.
        let cb = cube.to_bdd(&mut m).unwrap();
        assert!(m.implies_check(cb, f).unwrap());
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
            let cb = cube.to_bdd(&mut m).unwrap();
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
