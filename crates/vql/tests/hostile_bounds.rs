//! Distance bounds far beyond any string length are legal VQL: they must
//! select every row under every strategy, never panic and never wrap to
//! an empty answer. (`usize::MAX`-sized bounds reach the q-sample
//! capacity, the count-filter threshold and the verifier's cutoff.)

use sqo_core::{EngineBuilder, SimilarityEngine, Strategy};
use sqo_storage::triple::{Row, Value};
use sqo_vql::{run, ExecOptions};

const ROWS: usize = 40;

/// `i64::MAX`, a float that saturates `usize`, and `usize::MAX` itself as
/// an integer bound.
const BOUNDS: [&str; 3] =
    ["<= 9223372036854775807", "< 100000000000000000000.0", "<= 18446744073709551615.0"];

/// Both attribute names share the gram "na" with the schema-level query
/// 'nam': the gram strategies only find strings that share a gram with the
/// query (the completeness note of `sqo_core::similar`), whatever the bound.
fn engine() -> SimilarityEngine {
    let rows: Vec<Row> = (0..ROWS)
        .map(|i| {
            Row::new(
                format!("w:{i}"),
                [("name", Value::from(format!("word{i}abc"))), ("named", Value::from("n"))],
            )
        })
        .collect();
    EngineBuilder::new().peers(32).seed(5).q(2).build_with_rows(&rows)
}

fn count(e: &mut SimilarityEngine, strategy: Strategy, query: &str) -> usize {
    let from = e.random_peer();
    run(e, from, query, &ExecOptions { strategy })
        .unwrap_or_else(|err| panic!("{strategy:?}: {query}: {err}"))
        .rows
        .len()
}

#[test]
fn huge_instance_bounds_select_every_row() {
    let mut e = engine();
    for strategy in Strategy::ALL {
        for bound in BOUNDS {
            let q = format!("SELECT ?v WHERE {{ (?x,name,?v) FILTER (dist(?v,'word1') {bound}) }}");
            assert_eq!(count(&mut e, strategy, &q), ROWS, "{strategy:?}: {q}");
        }
    }
}

#[test]
fn huge_schema_bounds_select_every_binding() {
    let mut e = engine();
    for strategy in Strategy::ALL {
        for bound in BOUNDS {
            let q = format!("SELECT ?a WHERE {{ (?x,?a,?v) FILTER (dist(?a,'nam') {bound}) }}");
            assert_eq!(count(&mut e, strategy, &q), 2 * ROWS, "{strategy:?}: {q}");
        }
    }
}
