//! Scene-style micro-KBs.
//!
//! Classic referring-expression generation (Dale's full brevity, Krahmer's
//! graph-based method) was evaluated on *scenes*: exhaustive descriptions
//! of a small set of objects and their attributes — "the small red cube on
//! the table". The paper notes these datasets have far fewer predicates and
//! instances than modern KBs (§1, §5; the largest graph in \[10\] had 256
//! vertices). This module generates such scenes so the suite can (a) sanity
//! check REMI on the historical workload and (b) show the scalability gap
//! benchmarked in the paper's related-work discussion.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use remi_kb::store::{KbBuilder, RDF_TYPE};
use remi_kb::{KnowledgeBase, NodeId};

const TYPES: [&str; 5] = ["Cube", "Sphere", "Pyramid", "Cylinder", "Cone"];
const COLORS: [&str; 6] = ["Red", "Green", "Blue", "Yellow", "Black", "White"];
const SIZES: [&str; 3] = ["Small", "Medium", "Large"];

/// A generated scene.
#[derive(Debug)]
pub struct Scene {
    /// The scene KB (objects, attribute values, spatial relations).
    pub kb: KnowledgeBase,
    /// The object entities in generation order.
    pub objects: Vec<NodeId>,
}

/// Generates a scene with `n` objects. Each object gets a shape type, a
/// color, a size, and `nextTo`/`leftOf` relations to its neighbours on a
/// line — a faithful miniature of the NLG scene datasets.
pub fn generate_scene(n: usize, seed: u64) -> Scene {
    assert!(n >= 1, "a scene needs at least one object");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = KbBuilder::new();

    let type_p = b.pred(RDF_TYPE);
    let color_p = b.pred("p:color");
    let size_p = b.pred("p:size");
    let next_to = b.pred("p:nextTo");
    let left_of = b.pred("p:leftOf");

    let type_nodes: Vec<NodeId> = TYPES.iter().map(|t| b.entity(&format!("c:{t}"))).collect();
    let color_nodes: Vec<NodeId> = COLORS.iter().map(|c| b.entity(&format!("v:{c}"))).collect();
    let size_nodes: Vec<NodeId> = SIZES.iter().map(|s| b.entity(&format!("v:{s}"))).collect();

    let mut objects = Vec::with_capacity(n);
    for i in 0..n {
        let obj = b.entity(&format!("o:obj{i}"));
        b.add_ids(obj, type_p, type_nodes[rng.gen_range(0..type_nodes.len())]);
        b.add_ids(
            obj,
            color_p,
            color_nodes[rng.gen_range(0..color_nodes.len())],
        );
        b.add_ids(obj, size_p, size_nodes[rng.gen_range(0..size_nodes.len())]);
        objects.push(obj);
    }
    for w in objects.windows(2) {
        b.add_ids(w[0], next_to, w[1]);
        b.add_ids(w[1], next_to, w[0]);
        b.add_ids(w[0], left_of, w[1]);
    }

    let kb = b.build().expect("scene is never empty");
    Scene { kb, objects }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scene_has_expected_shape() {
        let s = generate_scene(10, 3);
        assert_eq!(s.objects.len(), 10);
        // 3 attribute facts per object + 3 relations per adjacent pair.
        assert_eq!(s.kb.num_triples(), 10 * 3 + 9 * 3);
        // Few predicates, as in historical scene datasets.
        assert_eq!(s.kb.num_preds(), 5);
    }

    #[test]
    fn every_object_has_all_attributes() {
        let s = generate_scene(25, 9);
        let color = s.kb.pred_id("p:color").unwrap();
        let size = s.kb.pred_id("p:size").unwrap();
        let tp = s.kb.type_pred().unwrap();
        for &o in &s.objects {
            assert_eq!(s.kb.objects(color, o).len(), 1);
            assert_eq!(s.kb.objects(size, o).len(), 1);
            assert_eq!(s.kb.objects(tp, o).len(), 1);
        }
    }

    #[test]
    fn deterministic() {
        let a = generate_scene(15, 4);
        let b = generate_scene(15, 4);
        let dump = |s: &Scene| {
            let mut v = Vec::new();
            remi_kb::ntriples::write_kb(&s.kb, &mut v).unwrap();
            v
        };
        assert_eq!(dump(&a), dump(&b));
    }

    #[test]
    fn single_object_scene() {
        let s = generate_scene(1, 0);
        assert_eq!(s.objects.len(), 1);
        assert_eq!(s.kb.num_triples(), 3);
    }
}
