//! Property tests for the v4 workspace call graph (T1's substrate):
//!
//! 1. Resolved call edges never leave the symbol graph's reference
//!    relation — every edge the resolver draws is backed by an ident
//!    occurrence of the callee's name in the caller's file, which is
//!    exactly what the PR 6 reference counter sees. The call graph may
//!    over-approximate *within* that relation, never outside it.
//! 2. The taint analysis is a pure function of the harvested fn *set*:
//!    file discovery order must not leak into paths or counts (the
//!    analysis pre-sorts its input, and this pins that contract).

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::OnceLock;

use proptest::prelude::*;
use xtask::callgraph::FnDecl;
use xtask::layering::CrateManifest;
use xtask::lexer::{lex, TokKind};
use xtask::symbols::{reachable, Callable, CallableIndex};
use xtask::taint::{analyze, t1_message};

struct Harvest {
    fns: Vec<FnDecl>,
    manifests: Vec<CrateManifest>,
    /// Per file: every ident token in it — the reference relation the
    /// symbol graph counts.
    idents: BTreeMap<String, BTreeSet<String>>,
}

fn harvest() -> &'static Harvest {
    static H: OnceLock<Harvest> = OnceLock::new();
    H.get_or_init(|| {
        let root = xtask::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
            .expect("workspace root");
        let manifests = xtask::layering::read_manifests(&root).expect("manifests");
        let mut fns = Vec::new();
        let mut idents: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for target in xtask::workspace_targets(&root).expect("targets") {
            for file in xtask::rust_files(&target.src_dir).expect("files") {
                let text = std::fs::read_to_string(&file).expect("read");
                let rel = file
                    .strip_prefix(&root)
                    .unwrap_or(&file)
                    .to_string_lossy()
                    .replace('\\', "/");
                fns.extend(xtask::scan_file(&target, &rel, &text, &[]).fns);
                let set = idents.entry(rel).or_default();
                for t in lex(&text) {
                    if t.kind == TokKind::Ident {
                        set.insert(t.text(&text).to_string());
                    }
                }
            }
        }
        Harvest { fns, manifests, idents }
    })
}

/// Every resolved edge's callee name occurs as an ident in the caller's
/// file: call-graph edges ⊆ symbol-graph references.
#[test]
fn resolved_edges_are_a_subset_of_symbol_references() {
    let h = harvest();
    let callables: Vec<Callable> = h
        .fns
        .iter()
        .map(|f| Callable {
            path: f.path.clone(),
            name: f.name.clone(),
            owner: f.owner.clone(),
            pkg: f.pkg.clone(),
        })
        .collect();
    let index = CallableIndex::new(callables);
    let reach = reachable(&h.manifests);
    let mut edges = 0usize;
    for f in &h.fns {
        let refs = h.idents.get(&f.file).expect("caller file was lexed");
        for c in &f.calls {
            for cand in index.resolve(&f.pkg, f.owner.as_deref(), &c.name, &c.quals, c.method, &reach)
            {
                let callee = index.get(cand);
                assert!(
                    refs.contains(&callee.name),
                    "edge {} -> {} has no ident reference in {}",
                    f.path,
                    callee.path,
                    f.file
                );
                edges += 1;
            }
        }
    }
    assert!(edges > 50, "expected a dense real-tree call graph, got {edges} edges");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Shuffling the harvested fn list never changes the analysis: the
    /// same witness paths (message-identical) and the same per-crate
    /// counts come out in the same order.
    #[test]
    fn analysis_is_independent_of_harvest_order(seed in any::<u64>()) {
        let h = harvest();
        let mut order: Vec<usize> = (0..h.fns.len()).collect();
        // Fisher–Yates keyed by the generated seed (splitmix64 mix).
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for i in (1..order.len()).rev() {
            let j = (next() % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        let shuffled: Vec<FnDecl> = order.iter().map(|&i| h.fns[i].clone()).collect();

        let (paths_a, counts_a) = analyze(&h.fns, &h.manifests);
        let (paths_b, counts_b) = analyze(&shuffled, &h.manifests);
        prop_assert_eq!(&counts_a, &counts_b);
        let msgs_a: Vec<String> = paths_a.iter().map(t1_message).collect();
        let msgs_b: Vec<String> = paths_b.iter().map(t1_message).collect();
        prop_assert_eq!(msgs_a, msgs_b);
        let sites_a: Vec<(&str, usize)> =
            paths_a.iter().map(|p| (p.file.as_str(), p.line)).collect();
        let sites_b: Vec<(&str, usize)> =
            paths_b.iter().map(|p| (p.file.as_str(), p.line)).collect();
        prop_assert_eq!(sites_a, sites_b);
    }
}
