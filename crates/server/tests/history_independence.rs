//! A cell's bits must not depend on which requests a daemon served before
//! it. The pattern cache shares symbolic analyses (and the factors of
//! identical matrices) across requests, so this replays one set of
//! same-topology mesh and tree requests in two orders through
//! default-configured engines, with the cache cleared in between, and
//! requires every cell to come back bit for bit the same.
//!
//! This file holds exactly one test: the engine's pattern cache is
//! process-global, and a second engine running concurrently in the same
//! binary would seed it in an order this test does not control.

use std::collections::BTreeMap;

use rlckit_circuit::pattern_cache;
use rlckit_server::{Engine, ServerConfig};
use rlckit_telemetry::json;

/// Same-topology requests whose cells differ only in element values: four
/// driver sizes on one 5×5 mesh, three on one two-level binary tree.
const MESH: &str = "{\"id\":\"mesh\",\"evaluator\":\"mesh_delay\",\
    \"base\":{\"mesh_rows\":5,\"mesh_cols\":5},\
    \"axes\":[{\"param\":\"driver_size\",\"values\":VALUES}]}";
const TREE: &str = "{\"id\":\"tree\",\"evaluator\":\"tree_delay\",\
    \"base\":{\"tree_levels\":2,\"tree_fanout\":2,\"ladder_sections\":6},\
    \"axes\":[{\"param\":\"driver_size\",\"values\":VALUES}]}";

/// Serves `requests` through a fresh default engine over an empty pattern
/// cache and returns every cell's values keyed by `(request id, label)`.
fn serve(requests: &[String]) -> BTreeMap<(String, String), Vec<u64>> {
    pattern_cache::clear();
    let engine = Engine::new(ServerConfig::default()).expect("engine starts");
    let mut out = Vec::new();
    engine.serve_stream(requests.join("\n").as_bytes(), &mut out).expect("requests serve");
    engine.join();

    let mut cells = BTreeMap::new();
    for line in String::from_utf8(out).expect("responses are UTF-8").lines() {
        let reply = json::parse(line).expect("responses are JSON");
        if reply.get("type").and_then(json::Value::as_str) != Some("cell") {
            continue;
        }
        let id = reply.get("id").and_then(json::Value::as_str).expect("cell id").to_owned();
        let labels = reply.get("labels").and_then(json::Value::as_arr).expect("cell labels");
        let label = labels[0].as_str().expect("string label").to_owned();
        let values = reply
            .get("values")
            .and_then(json::Value::as_arr)
            .unwrap_or_else(|| panic!("cell {id}/{label} failed: {line}"))
            .iter()
            .map(|v| v.as_f64().expect("numeric value").to_bits())
            .collect();
        cells.insert((id, label), values);
    }
    cells
}

#[test]
fn cell_bits_do_not_depend_on_request_order() {
    let with = |template: &str, values: &str| template.replace("VALUES", values);
    let forward = [with(MESH, "[40,60,90,130]"), with(TREE, "[50,100,150]")];
    let backward = [with(TREE, "[150,100,50]"), with(MESH, "[130,90,60,40]")];

    let first = serve(&forward);
    let second = serve(&backward);
    pattern_cache::clear();

    assert_eq!(first.len(), 7, "every cell evaluates: {first:?}");
    assert_eq!(
        first.keys().collect::<Vec<_>>(),
        second.keys().collect::<Vec<_>>(),
        "both orders serve the same cells"
    );
    for (cell, bits) in &first {
        assert_eq!(bits, &second[cell], "cell {cell:?} depends on the request order");
    }
}
