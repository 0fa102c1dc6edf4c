//! The benchmark's own spans, merged into the program's Chrome trace.
//!
//! Spans are recorded as complete (`"X"`) events on the clock of the
//! run's [`Recorder`], so the program's node and stage events, which the
//! recorder holds, nest inside the benchmark's `op` spans when viewed.

use ddl_core::json::Json;
use ddl_core::{chrome_trace_json, validate_chrome_trace, Recorder};
use std::collections::BTreeMap;
use std::path::Path;

#[derive(Default)]
pub struct Spans {
    events: Vec<Json>,
}

impl Spans {
    /// Records span `name` from `start_ns` to `end_ns` (recorder clock) on
    /// lane `tid`, with numeric arguments.
    pub fn push(&mut self, name: &str, start_ns: u64, end_ns: u64, tid: u64, args: &[(&str, f64)]) {
        let mut m = BTreeMap::new();
        m.insert("name".to_string(), Json::Str(name.to_string()));
        m.insert("cat".to_string(), Json::Str("benchmark".to_string()));
        m.insert("ph".to_string(), Json::Str("X".to_string()));
        m.insert("ts".to_string(), Json::Num(start_ns as f64 / 1e3));
        m.insert(
            "dur".to_string(),
            Json::Num(end_ns.saturating_sub(start_ns) as f64 / 1e3),
        );
        m.insert("pid".to_string(), Json::Num(1.0));
        m.insert("tid".to_string(), Json::Num(tid as f64));
        let args = args
            .iter()
            .map(|(k, v)| (k.to_string(), Json::Num(*v)))
            .collect();
        m.insert("args".to_string(), Json::Obj(args));
        self.events.push(Json::Obj(m));
    }

    /// Writes the recorder's timeline plus these spans to `path` and
    /// checks the document with the program's own trace validator.
    pub fn write(self, recorder: &Recorder, path: &Path) -> Result<(), String> {
        let mut doc = chrome_trace_json(recorder);
        if let Json::Obj(top) = &mut doc {
            if let Some(Json::Arr(events)) = top.get_mut("traceEvents") {
                events.extend(self.events);
            }
        }
        let text = doc.pretty();
        validate_chrome_trace(&text).map_err(|e| format!("trace does not validate: {e}"))?;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        }
        std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))
    }
}
