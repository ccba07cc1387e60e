//! Keeps the fixture's entry points referenced: examples are X1 roots.

fn main() {
    let mut rng = titan_sim::Rng::new(7);
    let mut nodes = vec![3u64, 1, 2];
    titan_sim::hit(&mut nodes, &mut rng);
    titan_sim::non_hit(&mut nodes, &mut rng);
    let _rec = titan_sim::Recorder { rng };
}
