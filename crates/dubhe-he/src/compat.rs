//! The one name only the detached `benchmark/` crate spells, kept as a thin
//! adapter over what the coordinator runs, and re-exported at the crate
//! root where the benchmark looks for it. Nothing else may name it: the
//! seam guard `tests/compat_seam.rs` fails if a file under `crates/`,
//! `tests/`, `examples/` or `src/` does. ROADMAP item 12 deletes this module.

use crate::{HeError, HeadroomModel, PackedEncryptedVector, RunningFold};

/// A running sum of packed vectors: the coordinator's fold of a packed
/// upload — a [`RunningFold`] over its ciphertexts, each vector refused
/// first if its slot layout, lane count or the model's client budget says
/// no, so a refusal leaves the sum as it was.
#[derive(Debug)]
pub struct PackedRunningFold {
    fold: RunningFold,
    count: usize,
    model: HeadroomModel,
}

impl PackedRunningFold {
    pub fn new(v: &PackedEncryptedVector, model: HeadroomModel) -> Result<Self, HeError> {
        model.check_packer(&v.packer())?;
        model.check_budget(1)?;
        Ok(PackedRunningFold {
            fold: RunningFold::new(v.vector()),
            count: v.count(),
            model,
        })
    }

    pub fn fold(&mut self, v: &PackedEncryptedVector) -> Result<(), HeError> {
        self.model.check_packer(&v.packer())?;
        if v.count() != self.count {
            return Err(HeError::LengthMismatch {
                left: self.count,
                right: v.count(),
            });
        }
        self.model.check_budget(self.fold.folded() + 1)?;
        self.fold.fold(v.vector())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Keypair, Packer, TEST_KEY_BITS};
    use rand::SeedableRng;

    #[test]
    fn the_adapter_is_the_running_fold_behind_the_coordinators_checks() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let kp = Keypair::generate(TEST_KEY_BITS, &mut rng);
        let p16 = Packer::new(16, TEST_KEY_BITS);
        let model = HeadroomModel::new(p16, 3, 9).unwrap();
        let packed = |values: &[u64], packer, rng: &mut rand::rngs::StdRng| {
            PackedEncryptedVector::encrypt(packer, &kp.public, values, rng).unwrap()
        };
        let vs: Vec<_> = (0..4)
            .map(|i| packed(&[i + 1, 0, 9, i], p16, &mut rng))
            .collect();
        let mut fold = PackedRunningFold::new(&vs[0], model).unwrap();
        let mut reference = RunningFold::new(vs[0].vector());
        for v in &vs[1..3] {
            fold.fold(v).unwrap();
            reference.fold(v.vector()).unwrap();
        }
        // Refused, each before the multiply: a fourth client past the
        // budget, a foreign slot layout, a different lane count.
        let budget = HeError::ClientBudgetExhausted {
            folded: 4,
            max_clients: 3,
        };
        assert_eq!(fold.fold(&vs[3]), Err(budget));
        let p32 = Packer::new(32, TEST_KEY_BITS);
        let foreign = packed(&[1, 2, 3, 4], p32, &mut rng);
        assert!(matches!(
            fold.fold(&foreign),
            Err(HeError::PackerMismatch { .. })
        ));
        assert!(matches!(
            PackedRunningFold::new(&foreign, model),
            Err(HeError::PackerMismatch { .. })
        ));
        let mut wide =
            PackedRunningFold::new(&vs[0], HeadroomModel::new(p16, 9, 9).unwrap()).unwrap();
        let err = wide.fold(&packed(&[1; 5], p16, &mut rng)).unwrap_err();
        assert_eq!(err, HeError::LengthMismatch { left: 4, right: 5 });
        assert_eq!(fold.fold.folded(), 3);
        assert_eq!(fold.fold.total(), reference.total());
        let total = PackedEncryptedVector::from_vector(fold.fold.total(), 4, p16).unwrap();
        assert_eq!(total.decrypt_u64(&kp.private).unwrap(), vec![6, 0, 27, 3]);
    }
}
