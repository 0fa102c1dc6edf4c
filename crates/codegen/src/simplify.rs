//! Post-construction passes over expression graphs.
//!
//! Algebraic simplification happens *during* construction (the smart
//! constructors in [`crate::expr`]); what remains for a separate pass is
//! structural: [`compact`] rebuilds a graph keeping only nodes reachable
//! from the outputs (generation explores subexpressions that
//! simplification later orphans), which both shrinks emission and makes
//! op-count reports exact.

use crate::expr::{CVal, ExprId, Graph, Node};

/// Rebuilds `g` with only the nodes live from `outputs`. Node order stays
/// topological (children precede parents), which the emitter relies on.
pub fn compact(g: &Graph, outputs: &[CVal]) -> (Graph, Vec<CVal>) {
    let roots: Vec<ExprId> = outputs.iter().flat_map(|c| [c.re, c.im]).collect();
    let live = g.live_set(&roots);
    let mut out = Graph::new();
    let mut remap: Vec<Option<ExprId>> = vec![None; g.len()];

    // A live node's children are live and precede it (graphs are built
    // bottom-up), so by the time a parent is rebuilt its children have
    // already been remapped; a miss means `live_set` itself is broken.
    #[expect(
        clippy::expect_used,
        reason = "topological-order invariant of live_set"
    )]
    let mapped = |remap: &[Option<ExprId>], id: ExprId| {
        remap[id.0 as usize].expect("compact: child of a live node not remapped")
    };

    for i in 0..g.len() {
        if !live[i] {
            continue;
        }
        let id = ExprId(i as u32);
        let new_id = match g.node(id) {
            Node::LoadRe(k) => out.load_re(k as usize),
            Node::LoadIm(k) => out.load_im(k as usize),
            Node::Const(b) => out.constant(f64::from_bits(b)),
            Node::Add(a, b) => {
                let (a, b) = (mapped(&remap, a), mapped(&remap, b));
                out.add(a, b)
            }
            Node::Sub(a, b) => {
                let (a, b) = (mapped(&remap, a), mapped(&remap, b));
                out.sub(a, b)
            }
            Node::Neg(a) => {
                let a = mapped(&remap, a);
                out.neg(a)
            }
            Node::MulC(c, a) => {
                let a = mapped(&remap, a);
                out.mul_const(f64::from_bits(c), a)
            }
        };
        remap[i] = Some(new_id);
    }

    let outputs = outputs
        .iter()
        .map(|c| CVal {
            re: mapped(&remap, c.re),
            im: mapped(&remap, c.im),
        })
        .collect();
    (out, outputs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft_gen::generate_dft;
    use crate::interp::evaluate;
    use ddl_num::{relative_rms_error, Complex64, Direction};

    #[test]
    fn compact_drops_dead_nodes_and_preserves_semantics() {
        let (g, outs) = generate_dft(12, Direction::Forward);
        let (cg, couts) = compact(&g, &outs);
        assert!(cg.len() <= g.len());

        let x: Vec<Complex64> = (0..12)
            .map(|i| Complex64::new(i as f64, -(i as f64) * 0.5))
            .collect();
        let a = evaluate(&g, &outs, &x);
        let b = evaluate(&cg, &couts, &x);
        assert!(relative_rms_error(&a, &b) < 1e-15);
    }

    #[test]
    fn compact_is_idempotent() {
        let (g, outs) = generate_dft(8, Direction::Inverse);
        let (c1, o1) = compact(&g, &outs);
        let (c2, _o2) = compact(&c1, &o1);
        assert_eq!(c1.len(), c2.len());
    }

    #[test]
    fn compacted_graph_contains_no_dead_nodes() {
        let (g, outs) = generate_dft(10, Direction::Forward);
        let (cg, couts) = compact(&g, &outs);
        let roots: Vec<ExprId> = couts.iter().flat_map(|c| [c.re, c.im]).collect();
        let live = cg.live_set(&roots);
        assert!(live.iter().all(|&l| l), "compact left dead nodes behind");
    }
}
