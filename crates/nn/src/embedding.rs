//! User-identity embeddings and the id vocabulary.

// lint: allow(nondeterminism) — Vocab's map is lookup-only; its iteration order is never observed
use std::collections::HashMap;

use cascn_autograd::{Exec, ParamId, ParamStore};
use rand::rngs::StdRng;

use crate::init;

/// Maps sparse global user ids to dense embedding rows. Row 0 is reserved
/// for out-of-vocabulary users (test-set users unseen during training).
#[derive(Debug, Clone, Default)]
pub struct Vocab {
    // lint: allow(nondeterminism) — ids are assigned on insertion order and read by point lookup; the map is never iterated
    index: HashMap<u64, usize>,
}

impl Vocab {
    /// Builds a vocabulary from training-set user ids. `max_size` bounds the
    /// table (0 = unbounded); ids are admitted first-come-first-served.
    pub fn build(users: impl Iterator<Item = u64>, max_size: usize) -> Self {
        // lint: allow(nondeterminism) — populated in caller-supplied order, read only via get
        let mut index = HashMap::new();
        for u in users {
            if max_size > 0 && index.len() >= max_size {
                break;
            }
            let next = index.len() + 1; // 0 = UNK
            index.entry(u).or_insert(next);
        }
        Self { index }
    }

    /// Number of embedding rows needed (vocabulary + UNK row).
    pub fn table_size(&self) -> usize {
        self.index.len() + 1
    }

    /// Dense row index for a user (0 for unknown users).
    pub fn lookup(&self, user: u64) -> usize {
        self.index.get(&user).copied().unwrap_or(0)
    }

    /// Number of known users (excluding UNK).
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the vocabulary is empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }
}

/// A learnable embedding table.
#[derive(Debug, Clone)]
pub struct Embedding {
    table: ParamId,
    dim: usize,
}

impl Embedding {
    /// Registers a `rows x dim` table with small-normal initialization (the
    /// DeepCas setup: 50-dimensional user embeddings).
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        rows: usize,
        dim: usize,
        rng: &mut StdRng,
    ) -> Self {
        let table = store.register(format!("{name}.table"), init::normal(rows, dim, 0.1, rng));
        Self { table, dim }
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Looks up a batch of row indices, producing an `indices.len() x dim`
    /// value (on a tape, with scatter-add gradients into the table).
    pub fn forward<'s, E: Exec<'s>>(
        &self,
        ex: &mut E,
        store: &'s ParamStore,
        indices: Vec<usize>,
    ) -> E::Value {
        let table = ex.param(store, self.table);
        ex.gather(&table, indices)
    }

    /// Looks up `indices` as a sequence of `1 x dim` steps, one per index,
    /// for a recurrent cell to consume in order.
    pub fn sequence<'s, E: Exec<'s>>(
        &self,
        ex: &mut E,
        store: &'s ParamStore,
        indices: &[usize],
    ) -> Vec<E::Value> {
        let rows = self.forward(ex, store, indices.to_vec());
        (0..indices.len()).map(|i| ex.slice_rows(&rows, i, 1)).collect()
    }

    /// Raw parameter id (for weight inspection).
    pub fn param_id(&self) -> ParamId {
        self.table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cascn_autograd::Tape;
    use rand::SeedableRng;

    #[test]
    fn vocab_reserves_unk() {
        let v = Vocab::build([10u64, 20, 10, 30].into_iter(), 0);
        assert_eq!(v.len(), 3);
        assert_eq!(v.table_size(), 4);
        assert_eq!(v.lookup(999), 0, "unknown → UNK row");
        assert_ne!(v.lookup(10), 0);
        assert_ne!(v.lookup(10), v.lookup(20));
    }

    #[test]
    fn vocab_respects_max_size() {
        let v = Vocab::build(0..100u64, 5);
        assert_eq!(v.len(), 5);
        assert_eq!(v.lookup(99), 0);
    }

    #[test]
    fn embedding_lookup_and_grad() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let emb = Embedding::new(&mut store, "e", 4, 3, &mut rng);
        let mut tape = Tape::new();
        let rows = emb.forward(&mut tape, &store, vec![1, 1, 2]);
        assert_eq!(tape.value(rows).shape(), (3, 3));
        let loss = tape.sum_all(rows);
        tape.backward(loss);
        tape.accumulate_param_grads(&mut store);
        let g = store.grad(emb.param_id());
        assert_eq!(g.row(1), &[2.0, 2.0, 2.0], "row 1 used twice");
        assert_eq!(g.row(3), &[0.0, 0.0, 0.0], "row 3 unused");
    }
}
