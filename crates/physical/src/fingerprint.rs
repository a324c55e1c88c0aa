//! Physical-node fingerprints: the cross-batch cache key of a
//! materialized result.
//!
//! A physical node is `(logical group, required property)`; its
//! fingerprint extends the group's canonical content hash
//! ([`mqo_dag::try_group_fingerprints`]) with the delivered sort order, so a
//! temp materialized `sorted[c3]` and the unordered temp of the same
//! group are distinct cache entries — exactly as they are distinct
//! materialization candidates in the search.

use crate::pdag::PhysicalDag;
use crate::prop::PhysProp;
use mqo_dag::{mix_fingerprint as mix, Fingerprint, GroupId};
use mqo_util::FxHashMap;

/// Fingerprint of every physical node, indexed by
/// [`PhysNodeId`](crate::PhysNodeId). `group_fps` comes from
/// [`mqo_dag::try_group_fingerprints`] over the same batch's logical DAG.
#[must_use]
pub fn node_fingerprints(
    pdag: &PhysicalDag,
    group_fps: &FxHashMap<GroupId, Fingerprint>,
) -> Vec<Fingerprint> {
    pdag.nodes()
        .iter()
        .map(|n| {
            let g = group_fps[&n.group];
            match &n.prop {
                PhysProp::Any => mix(g, 0x0A17),
                PhysProp::Sorted(keys) => {
                    let mut h = mix(g, 0x50B7ED);
                    for &k in keys {
                        h = mix(h, u64::from(k.0));
                    }
                    h
                }
            }
        })
        .collect()
}
