//! The Appendix A reduction between diagonal coflows and concurrent open
//! shop, in both directions.

use crate::{Job, OpenShopInstance};
use coflow::{Coflow, Demand, Instance};

/// Embeds a concurrent open shop instance as a coflow instance with
/// diagonal demand matrices (machine `i` ↦ port pair `(i, i)`).
pub fn open_shop_to_coflow(shop: &OpenShopInstance) -> Instance {
    let m = shop.machines();
    let coflows = shop
        .jobs()
        .iter()
        .map(|j| {
            let flows = j.processing.iter().enumerate().map(|(i, &p)| (i, i, p));
            let demand = Demand::from_flows(m, flows)
                .unwrap_or_else(|e| panic!("job {} does not fit the shop: {}", j.id, e));
            Coflow::new(j.id, demand)
                .with_release(j.release)
                .with_weight(j.weight)
        })
        .collect();
    Instance::new(m, coflows)
}

/// Projects a coflow instance with diagonal matrices back to concurrent
/// open shop. Panics if any off-diagonal demand exists.
pub fn coflow_to_open_shop(instance: &Instance) -> OpenShopInstance {
    let m = instance.ports();
    let jobs = instance
        .coflows()
        .iter()
        .map(|c| {
            let mut processing = vec![0; m];
            for (i, j, d) in c.demand.nonzero_entries() {
                assert_eq!(
                    i, j,
                    "coflow {} has off-diagonal demand; not an open shop instance",
                    c.id
                );
                processing[i] = d;
            }
            Job {
                id: c.id,
                processing,
                release: c.release,
                weight: c.weight,
            }
        })
        .collect();
    OpenShopInstance::new(m, jobs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use coflow_matching::IntMatrix;

    #[test]
    fn round_trip_preserves_everything() {
        let shop = OpenShopInstance::new(
            3,
            vec![
                Job::new(0, vec![1, 2, 3]).with_weight(2.0),
                Job::new(1, vec![4, 0, 1]).with_release(5),
            ],
        );
        let inst = open_shop_to_coflow(&shop);
        assert_eq!(inst.ports(), 3);
        assert_eq!(inst.coflow(0).demand.get(2, 2), 3);
        assert_eq!(inst.coflow(1).release, 5);
        let back = coflow_to_open_shop(&inst);
        assert_eq!(back.jobs(), shop.jobs());
    }

    #[test]
    #[should_panic(expected = "off-diagonal")]
    fn off_diagonal_rejected() {
        let c = Coflow::new(0, IntMatrix::from_nested(&[[0, 1], [0, 0]]));
        let inst = Instance::new(2, vec![c]);
        let _ = coflow_to_open_shop(&inst);
    }
}
