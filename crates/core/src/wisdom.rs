//! Plan persistence ("wisdom", in FFTW's terminology).
//!
//! The paper's search runs offline ("note that this search algorithm is
//! performed off line", Section I); its output — the optimal tree per
//! (transform, size, strategy) — is what production code loads. A
//! [`Wisdom`] store keeps those results as grammar expressions in a JSON
//! file so benchmark binaries and applications can share one planning
//! pass.
//!
//! # Fault tolerance
//!
//! A long-running service must survive a stale, truncated, or corrupted
//! wisdom file, so the store is hardened end to end:
//!
//! * **Versioned format.** Files carry `"version": 2`; version-1 files
//!   (no version field) still load. A file written by a *newer* library
//!   is refused with [`DdlError::WisdomVersion`] instead of being
//!   misinterpreted.
//! * **Per-entry validation on load.** Every entry's expression is
//!   re-parsed, its tree re-validated, and its size checked against the
//!   key. Bad entries are *quarantined* — excluded from lookups but
//!   reported through [`Wisdom::quarantined`] with a diagnostic — rather
//!   than silently dropped or allowed to poison execution.
//! * **Atomic save.** [`Wisdom::save`] writes a temp file in the target
//!   directory and renames it into place, so a crash mid-save can never
//!   leave a half-written store.
//! * **Graceful degradation.** [`Wisdom::get_or_plan_dft`] /
//!   [`get_or_plan_wht`](Wisdom::get_or_plan_wht) fall back to re-planning
//!   when an entry is missing or corrupt; a bad cache entry costs time,
//!   never correctness.

use crate::grammar;
use crate::json::{self, Json};
use crate::obs::{Counter, NullSink, Sink};
use crate::planner::{self, PlannerConfig, Strategy};
use crate::tree::Tree;
use ddl_num::{DdlError, WISDOM_FORMAT_VERSION};
use std::collections::BTreeMap;
use std::path::Path;

/// One stored planning result.
#[derive(Clone, Debug, PartialEq)]
pub struct WisdomEntry {
    /// The optimal tree, as a grammar expression.
    pub expr: String,
    /// The cost the planner reported (seconds for measured backends,
    /// nanoseconds for analytical ones).
    pub cost: f64,
    /// Free-form note about how the entry was produced (backend, host).
    pub note: String,
}

/// A corrupt entry found during [`Wisdom::load`], kept for diagnostics
/// instead of being silently discarded.
#[derive(Clone, Debug, PartialEq)]
pub struct QuarantinedEntry {
    /// The wisdom key the entry was stored under.
    pub key: String,
    /// Why the entry was rejected.
    pub error: DdlError,
    /// The raw expression text, when the entry got far enough to have one.
    pub expr: Option<String>,
}

/// A persistent map from `(transform, size, strategy)` to planned trees.
#[derive(Clone, Debug, Default)]
pub struct Wisdom {
    entries: BTreeMap<String, WisdomEntry>,
    quarantined: Vec<QuarantinedEntry>,
}

fn key(transform: &str, n: usize, strategy: Strategy) -> String {
    let strat = match strategy {
        Strategy::Sdl => "sdl",
        Strategy::Ddl => "ddl",
    };
    format!("{transform}:{n}:{strat}")
}

/// Splits `"dft:64:ddl"` back into its components, if well-formed.
fn parse_key(key: &str) -> Option<(&str, usize, Strategy)> {
    let mut parts = key.split(':');
    let transform = parts.next()?;
    let n: usize = parts.next()?.parse().ok()?;
    let strategy = match parts.next()? {
        "sdl" => Strategy::Sdl,
        "ddl" => Strategy::Ddl,
        _ => return None,
    };
    if parts.next().is_some() {
        return None;
    }
    Some((transform, n, strategy))
}

/// Validates one entry: expression parses, tree validates, and the tree's
/// size matches the size encoded in the key.
fn validate_entry(key_str: &str, entry: &WisdomEntry) -> Result<Tree, DdlError> {
    let corrupt = |detail: String| DdlError::CorruptWisdomEntry {
        key: key_str.to_string(),
        detail,
    };
    let tree = grammar::parse(&entry.expr)
        .map_err(|e| corrupt(format!("expression does not parse: {e}")))?;
    tree.validate()
        .map_err(|e| corrupt(format!("tree fails validation: {e}")))?;
    if let Some((_, n, _)) = parse_key(key_str) {
        let size = tree.size();
        if size != n {
            return Err(corrupt(format!(
                "tree size {size} does not match key size {n}"
            )));
        }
    }
    if !entry.cost.is_finite() || entry.cost < 0.0 {
        return Err(corrupt(format!(
            "cost {} is not a finite non-negative number",
            entry.cost
        )));
    }
    Ok(tree)
}

impl Wisdom {
    /// An empty store.
    pub fn new() -> Self {
        Wisdom::default()
    }

    /// Loads from a JSON file; a missing file yields an empty store.
    ///
    /// Structural problems with the *file* (unreadable, not JSON, wrong
    /// shape, version from the future) are errors; problems with an
    /// *individual entry* (bad expression, invalid tree, size mismatch)
    /// quarantine that entry — see [`Wisdom::quarantined`] — and leave
    /// the rest of the store usable.
    pub fn load(path: &Path) -> Result<Wisdom, DdlError> {
        Wisdom::load_with(path, &mut NullSink)
    }

    /// [`Wisdom::load`] with an observability sink: reports the number of
    /// accepted and quarantined entries as `wisdom.*` counters.
    pub fn load_with<S: Sink>(path: &Path, sink: &mut S) -> Result<Wisdom, DdlError> {
        let mut text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok(Wisdom::new());
            }
            Err(e) => {
                return Err(DdlError::WisdomIo {
                    path: path.display().to_string(),
                    detail: e.to_string(),
                })
            }
        };
        // Chaos probe: garble every tree expression after the read, as a
        // bit-rotted store would. The damaged entries must land in
        // quarantine — never crash the loader (see tests/chaos.rs).
        if crate::faultpoint::hit("wisdom.load.corrupt") {
            text = text.replace("ct(", "@@(").replace("split(", "@@(");
        }
        let wisdom = Wisdom::parse_document(&text).map_err(|e| match e {
            // Attach the path to format errors detected in-memory.
            DdlError::WisdomFormat { detail, .. } => DdlError::WisdomFormat {
                path: path.display().to_string(),
                detail,
            },
            other => other,
        })?;
        if S::ENABLED {
            sink.counter(Counter::WisdomLoadedEntries, wisdom.entries.len() as u64);
            sink.counter(
                Counter::WisdomQuarantinedEntries,
                wisdom.quarantined.len() as u64,
            );
        }
        Ok(wisdom)
    }

    /// Parses a wisdom document from memory; see [`Wisdom::load`].
    pub fn parse_document(text: &str) -> Result<Wisdom, DdlError> {
        let format_err = |detail: String| DdlError::WisdomFormat {
            path: String::new(),
            detail,
        };
        let doc = json::parse(text).map_err(|e| format_err(e.to_string()))?;
        let top = doc
            .as_obj()
            .ok_or_else(|| format_err("top level is not a JSON object".into()))?;

        // Version 1 files predate the version field; anything newer than
        // the current version is from a future library and refused.
        let version = match top.get("version") {
            None => 1,
            Some(v) => v
                .as_u64()
                .ok_or_else(|| format_err("\"version\" is not a non-negative integer".into()))?,
        };
        if version > WISDOM_FORMAT_VERSION as u64 {
            return Err(DdlError::WisdomVersion {
                found: version.min(u32::MAX as u64) as u32,
                supported: WISDOM_FORMAT_VERSION,
            });
        }

        let entries_json = match top.get("entries") {
            Some(v) => v
                .as_obj()
                .ok_or_else(|| format_err("\"entries\" is not a JSON object".into()))?,
            None => return Ok(Wisdom::new()),
        };

        let mut wisdom = Wisdom::new();
        for (key_str, value) in entries_json {
            match Wisdom::parse_entry(key_str, value) {
                Ok(entry) => match validate_entry(key_str, &entry) {
                    Ok(_) => {
                        wisdom.entries.insert(key_str.to_string(), entry);
                    }
                    Err(error) => wisdom.quarantined.push(QuarantinedEntry {
                        key: key_str.to_string(),
                        error,
                        expr: Some(entry.expr),
                    }),
                },
                Err(error) => wisdom.quarantined.push(QuarantinedEntry {
                    key: key_str.to_string(),
                    error,
                    expr: value
                        .as_obj()
                        .and_then(|m| m.get("expr"))
                        .and_then(Json::as_str)
                        .map(str::to_string),
                }),
            }
        }
        Ok(wisdom)
    }

    /// Structural decode of one entry object (no semantic validation).
    fn parse_entry(key_str: &str, value: &Json) -> Result<WisdomEntry, DdlError> {
        let corrupt = |detail: &str| DdlError::CorruptWisdomEntry {
            key: key_str.to_string(),
            detail: detail.to_string(),
        };
        let obj = value
            .as_obj()
            .ok_or_else(|| corrupt("entry is not a JSON object"))?;
        let expr = obj
            .get("expr")
            .and_then(Json::as_str)
            .ok_or_else(|| corrupt("entry is missing a string \"expr\" field"))?;
        let cost = obj
            .get("cost")
            .and_then(Json::as_f64)
            .ok_or_else(|| corrupt("entry is missing a numeric \"cost\" field"))?;
        let note = obj.get("note").and_then(Json::as_str).unwrap_or_default();
        Ok(WisdomEntry {
            expr: expr.to_string(),
            cost,
            note: note.to_string(),
        })
    }

    /// Serializes to the version-2 JSON document.
    pub fn to_document(&self) -> String {
        let mut entries = BTreeMap::new();
        for (k, e) in &self.entries {
            let mut obj = BTreeMap::new();
            obj.insert("expr".to_string(), Json::Str(e.expr.clone()));
            obj.insert("cost".to_string(), Json::Num(e.cost));
            obj.insert("note".to_string(), Json::Str(e.note.clone()));
            entries.insert(k.clone(), Json::Obj(obj));
        }
        let mut top = BTreeMap::new();
        top.insert(
            "version".to_string(),
            Json::Num(WISDOM_FORMAT_VERSION as f64),
        );
        top.insert("entries".to_string(), Json::Obj(entries));
        Json::Obj(top).pretty()
    }

    /// Saves atomically: writes a temp file in the same directory, then
    /// renames it over `path`, so readers never observe a torn file.
    pub fn save(&self, path: &Path) -> Result<(), DdlError> {
        self.save_with(path, &mut NullSink)
    }

    /// [`Wisdom::save`] with an observability sink: reports the number of
    /// entries written as a `wisdom.saved_entries` counter.
    pub fn save_with<S: Sink>(&self, path: &Path, sink: &mut S) -> Result<(), DdlError> {
        let io_err = |detail: String| DdlError::WisdomIo {
            path: path.display().to_string(),
            detail,
        };
        if crate::faultpoint::hit("wisdom.save.io") {
            return Err(io_err("injected I/O failure (wisdom.save.io)".into()));
        }
        let file_name = path
            .file_name()
            .ok_or_else(|| io_err("path has no file name".into()))?;
        // The temp name carries the pid *and* a process-global sequence
        // number: two threads of one process racing `save` on the same
        // path must never share a temp file, or one writer's rename can
        // publish the other's half-written bytes.
        static SAVE_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let seq = SAVE_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let mut tmp_name = std::ffi::OsString::from(".");
        tmp_name.push(file_name);
        tmp_name.push(format!(".tmp-{}-{seq}", std::process::id()));
        let tmp = path.with_file_name(tmp_name);

        std::fs::write(&tmp, self.to_document()).map_err(|e| io_err(e.to_string()))?;
        std::fs::rename(&tmp, path).map_err(|e| {
            let _ = std::fs::remove_file(&tmp);
            io_err(e.to_string())
        })?;
        if S::ENABLED {
            sink.counter(Counter::WisdomSavedEntries, self.entries.len() as u64);
        }
        Ok(())
    }

    /// Records a planning result.
    pub fn put(
        &mut self,
        transform: &str,
        n: usize,
        strategy: Strategy,
        tree: &Tree,
        cost: f64,
        note: &str,
    ) {
        self.entries.insert(
            key(transform, n, strategy),
            WisdomEntry {
                expr: grammar::print_dft(tree),
                cost,
                note: note.to_string(),
            },
        );
    }

    /// Looks up a stored tree, distinguishing "absent" from "corrupt".
    ///
    /// Returns `Ok(None)` for a genuine miss and
    /// [`DdlError::CorruptWisdomEntry`] when the key exists but its
    /// entry does not survive validation.
    pub fn try_get(
        &self,
        transform: &str,
        n: usize,
        strategy: Strategy,
    ) -> Result<Option<(Tree, f64)>, DdlError> {
        let key_str = key(transform, n, strategy);
        match self.entries.get(&key_str) {
            None => Ok(None),
            Some(entry) => {
                let tree = validate_entry(&key_str, entry)?;
                Ok(Some((tree, entry.cost)))
            }
        }
    }

    /// Looks up a stored tree.
    ///
    /// A corrupt entry is reported to stderr (with the key and reason)
    /// and treated as a miss; use [`Wisdom::try_get`] to observe the
    /// corruption as an error instead.
    pub fn get(&self, transform: &str, n: usize, strategy: Strategy) -> Option<(Tree, f64)> {
        match self.try_get(transform, n, strategy) {
            Ok(hit) => hit,
            Err(e) => {
                eprintln!("wisdom: ignoring corrupt entry: {e}");
                None
            }
        }
    }

    /// Returns the stored DFT tree for `n`, or plans one (and caches it)
    /// when the entry is missing or corrupt — graceful degradation: a bad
    /// cache entry costs a re-plan, never the request.
    pub fn get_or_plan_dft(
        &mut self,
        n: usize,
        cfg: &PlannerConfig,
    ) -> Result<(Tree, f64), DdlError> {
        self.get_or_plan_dft_with(n, cfg, &mut NullSink)
    }

    /// [`Wisdom::get_or_plan_dft`] with an observability sink: the lookup
    /// outcome lands in the `wisdom.hits`/`wisdom.misses` counters (a
    /// corrupt entry counts as a miss), and a re-plan reports its search
    /// into the sink too.
    pub fn get_or_plan_dft_with<S: Sink>(
        &mut self,
        n: usize,
        cfg: &PlannerConfig,
        sink: &mut S,
    ) -> Result<(Tree, f64), DdlError> {
        if let Ok(Some(hit)) = self.try_get("dft", n, cfg.strategy) {
            if S::ENABLED {
                sink.counter(Counter::WisdomHits, 1);
            }
            return Ok(hit);
        }
        if S::ENABLED {
            sink.counter(Counter::WisdomMisses, 1);
        }
        let outcome = planner::try_plan_dft_with(n, cfg, sink)?;
        self.put(
            "dft",
            n,
            cfg.strategy,
            &outcome.tree,
            outcome.cost,
            "re-planned (wisdom miss or corrupt entry)",
        );
        Ok((outcome.tree, outcome.cost))
    }

    /// WHT counterpart of [`Wisdom::get_or_plan_dft`].
    pub fn get_or_plan_wht(
        &mut self,
        n: usize,
        cfg: &PlannerConfig,
    ) -> Result<(Tree, f64), DdlError> {
        self.get_or_plan_wht_with(n, cfg, &mut NullSink)
    }

    /// WHT counterpart of [`Wisdom::get_or_plan_dft_with`].
    pub fn get_or_plan_wht_with<S: Sink>(
        &mut self,
        n: usize,
        cfg: &PlannerConfig,
        sink: &mut S,
    ) -> Result<(Tree, f64), DdlError> {
        if let Ok(Some(hit)) = self.try_get("wht", n, cfg.strategy) {
            if S::ENABLED {
                sink.counter(Counter::WisdomHits, 1);
            }
            return Ok(hit);
        }
        if S::ENABLED {
            sink.counter(Counter::WisdomMisses, 1);
        }
        let outcome = planner::try_plan_wht_with(n, cfg, sink)?;
        self.put(
            "wht",
            n,
            cfg.strategy,
            &outcome.tree,
            outcome.cost,
            "re-planned (wisdom miss or corrupt entry)",
        );
        Ok((outcome.tree, outcome.cost))
    }

    /// Iterates the decoded `(transform, n, strategy)` keys of every
    /// stored entry, in key order. Lets a service warm its plan cache
    /// from persisted wisdom without knowing the key syntax.
    pub fn keys(&self) -> impl Iterator<Item = (String, usize, Strategy)> + '_ {
        self.entries
            .keys()
            .filter_map(|k| parse_key(k).map(|(t, n, s)| (t.to_string(), n, s)))
    }

    /// Entries rejected during the last [`Wisdom::load`], with reasons.
    pub fn quarantined(&self) -> &[QuarantinedEntry] {
        &self.quarantined
    }

    /// Number of stored (valid) entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // `load` and `save` probe `wisdom.load.corrupt` and `wisdom.save.io`,
    // so every test that reads or writes a store file holds the
    // fault-point lock the injected-fault tests arm under.

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("ddl-wisdom-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn put_get_round_trip() {
        let mut w = Wisdom::new();
        let tree = Tree::split_ddl(Tree::leaf(8), Tree::leaf(8));
        w.put("dft", 64, Strategy::Ddl, &tree, 1.25e-6, "test");
        let (back, cost) = w.get("dft", 64, Strategy::Ddl).unwrap();
        assert_eq!(back, tree);
        assert_eq!(cost, 1.25e-6);
        // different strategy or transform misses
        assert!(w.get("dft", 64, Strategy::Sdl).is_none());
        assert!(w.get("wht", 64, Strategy::Ddl).is_none());
    }

    #[test]
    fn file_round_trip() {
        let _x = crate::faultpoint::exclusive();
        let dir = temp_dir("test");
        let path = dir.join("wisdom.json");

        let mut w = Wisdom::new();
        w.put(
            "wht",
            1 << 20,
            Strategy::Sdl,
            &Tree::rightmost(1 << 20, 8),
            0.01,
            "unit test",
        );
        w.save(&path).unwrap();
        let loaded = Wisdom::load(&path).unwrap();
        assert_eq!(loaded.len(), 1);
        assert!(loaded.quarantined().is_empty());
        let (tree, _) = loaded.get("wht", 1 << 20, Strategy::Sdl).unwrap();
        assert_eq!(tree.size(), 1 << 20);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn saved_files_carry_the_current_version() {
        let w = Wisdom::new();
        let doc = w.to_document();
        assert!(doc.contains("\"version\": 2"), "{doc}");
    }

    #[test]
    fn missing_file_loads_empty() {
        let w = Wisdom::load(Path::new("/nonexistent/definitely/absent.json")).unwrap();
        assert!(w.is_empty());
    }

    #[test]
    fn corrupt_file_is_an_error() {
        let _x = crate::faultpoint::exclusive();
        let dir = temp_dir("bad");
        let path = dir.join("bad.json");
        std::fs::write(&path, "{ not json").unwrap();
        let err = Wisdom::load(&path).unwrap_err();
        assert!(matches!(err, DdlError::WisdomFormat { .. }), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn legacy_version_1_files_load() {
        let doc = r#"{
            "entries": {
                "dft:16:sdl": { "expr": "ct(4, 4)", "cost": 1.0, "note": "v1" }
            }
        }"#;
        let w = Wisdom::parse_document(doc).unwrap();
        assert_eq!(w.len(), 1);
        assert!(w.get("dft", 16, Strategy::Sdl).is_some());
    }

    #[test]
    fn future_version_is_refused() {
        let doc = r#"{ "version": 99, "entries": {} }"#;
        let err = Wisdom::parse_document(doc).unwrap_err();
        assert_eq!(
            err,
            DdlError::WisdomVersion {
                found: 99,
                supported: WISDOM_FORMAT_VERSION
            }
        );
    }

    #[test]
    fn bad_entries_are_quarantined_not_fatal() {
        let doc = r#"{
            "version": 2,
            "entries": {
                "dft:16:sdl": { "expr": "ct(4, 4)", "cost": 1.0, "note": "good" },
                "dft:32:sdl": { "expr": "ct(4, 4)", "cost": 1.0, "note": "size lies" },
                "dft:64:ddl": { "expr": "ct(((", "cost": 1.0, "note": "no parse" },
                "dft:8:sdl": 17
            }
        }"#;
        let w = Wisdom::parse_document(doc).unwrap();
        assert_eq!(w.len(), 1);
        assert!(w.get("dft", 16, Strategy::Sdl).is_some());
        assert_eq!(w.quarantined().len(), 3);
        let keys: Vec<_> = w.quarantined().iter().map(|q| q.key.as_str()).collect();
        assert!(keys.contains(&"dft:32:sdl"));
        assert!(keys.contains(&"dft:64:ddl"));
        assert!(keys.contains(&"dft:8:sdl"));
        for q in w.quarantined() {
            assert!(matches!(q.error, DdlError::CorruptWisdomEntry { .. }));
        }
    }

    #[test]
    fn try_get_distinguishes_corrupt_from_missing() {
        let mut w = Wisdom::new();
        // Inject a corrupt entry directly (bypassing put's tree printer).
        w.entries.insert(
            key("dft", 64, Strategy::Ddl),
            WisdomEntry {
                expr: "not a tree".into(),
                cost: 1.0,
                note: String::new(),
            },
        );
        assert!(matches!(
            w.try_get("dft", 64, Strategy::Ddl),
            Err(DdlError::CorruptWisdomEntry { .. })
        ));
        assert_eq!(w.try_get("dft", 128, Strategy::Ddl), Ok(None));
        // The infallible getter reports and degrades to a miss.
        assert!(w.get("dft", 64, Strategy::Ddl).is_none());
    }

    #[test]
    fn get_or_plan_falls_back_on_corrupt_entry() {
        let mut w = Wisdom::new();
        w.entries.insert(
            key("dft", 32, Strategy::Ddl),
            WisdomEntry {
                expr: "ct(2, 2)".into(), // size 4, key says 32
                cost: 1.0,
                note: String::new(),
            },
        );
        let cfg = PlannerConfig::ddl_analytical();
        let (tree, _) = w.get_or_plan_dft(32, &cfg).unwrap();
        assert_eq!(tree.size(), 32);
        // The re-planned result replaced the corrupt entry.
        let (cached, _) = w.try_get("dft", 32, Strategy::Ddl).unwrap().unwrap();
        assert_eq!(cached, tree);
    }

    #[test]
    fn save_is_atomic_under_failed_rename() {
        let _x = crate::faultpoint::exclusive();
        // Renaming onto a directory fails; the original temp must be
        // cleaned up and no partial target produced.
        let dir = temp_dir("atomic");
        let target = dir.join("as-dir.json");
        std::fs::create_dir_all(&target).unwrap();
        let w = Wisdom::new();
        assert!(matches!(w.save(&target), Err(DdlError::WisdomIo { .. })));
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains("tmp"))
            .collect();
        assert!(leftovers.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn overwriting_replaces() {
        let mut w = Wisdom::new();
        w.put("dft", 16, Strategy::Sdl, &Tree::leaf(16), 2.0, "a");
        w.put(
            "dft",
            16,
            Strategy::Sdl,
            &Tree::split(Tree::leaf(4), Tree::leaf(4)),
            1.0,
            "b",
        );
        assert_eq!(w.len(), 1);
        let (tree, cost) = w.get("dft", 16, Strategy::Sdl).unwrap();
        assert_eq!(cost, 1.0);
        assert!(matches!(tree, Tree::Split { .. }));
    }

    #[test]
    fn racing_saves_never_corrupt_the_store() {
        use std::sync::Arc;
        let _x = crate::faultpoint::exclusive();

        let dir = temp_dir("race");
        let path = Arc::new(dir.join("wisdom.json"));

        // Each writer saves a complete, distinct, valid store many
        // times. Because every save uses a unique temp file and an
        // atomic rename, a reader must always observe *some* writer's
        // complete document — never torn bytes, never a parse error.
        let writers: Vec<_> = (0..4)
            .map(|w| {
                let path = Arc::clone(&path);
                std::thread::spawn(move || {
                    let mut wis = Wisdom::new();
                    let n = 16usize << w;
                    wis.put(
                        "dft",
                        n,
                        Strategy::Ddl,
                        &Tree::rightmost(n, 8),
                        1.0 + w as f64,
                        "race",
                    );
                    for _ in 0..50 {
                        wis.save(&path).unwrap();
                        let loaded = Wisdom::load(&path).unwrap();
                        assert_eq!(loaded.len(), 1, "torn or merged document");
                        assert!(loaded.quarantined().is_empty());
                    }
                })
            })
            .collect();
        for h in writers {
            h.join().unwrap();
        }

        // The final state is one writer's store, and no temp droppings
        // survive.
        let survivor = Wisdom::load(&path).unwrap();
        assert_eq!(survivor.len(), 1);
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp-"))
            .collect();
        assert!(leftovers.is_empty(), "stale temp files: {leftovers:?}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_load_corruption_quarantines_entries() {
        let _x = crate::faultpoint::exclusive();
        let dir = temp_dir("chaos-load");
        let path = dir.join("wisdom.json");

        let mut w = Wisdom::new();
        w.put(
            "dft",
            64,
            Strategy::Ddl,
            &Tree::split(Tree::leaf(8), Tree::leaf(8)),
            1.0,
            "chaos",
        );
        w.save(&path).unwrap();

        {
            let _g = crate::faultpoint::arm(
                5,
                &[("wisdom.load.corrupt", crate::faultpoint::FaultMode::Always)],
            );
            let loaded = Wisdom::load(&path).expect("corrupt entries must not crash the loader");
            assert_eq!(loaded.len(), 0);
            assert_eq!(loaded.quarantined().len(), 1);
            assert!(matches!(
                loaded.quarantined()[0].error,
                DdlError::CorruptWisdomEntry { .. }
            ));
        }
        // Disarmed, the same file loads cleanly.
        let clean = Wisdom::load(&path).unwrap();
        assert_eq!(clean.len(), 1);
        assert!(clean.quarantined().is_empty());

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_save_failure_is_a_typed_io_error() {
        let _x = crate::faultpoint::exclusive();
        let dir = temp_dir("chaos-save");
        let path = dir.join("wisdom.json");
        let w = Wisdom::new();
        {
            let _g = crate::faultpoint::arm(
                5,
                &[("wisdom.save.io", crate::faultpoint::FaultMode::Once(0))],
            );
            assert!(matches!(w.save(&path), Err(DdlError::WisdomIo { .. })));
            // The next save (fault spent) succeeds.
            w.save(&path).unwrap();
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
