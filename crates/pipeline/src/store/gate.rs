//! The one gate every artifact envelope passes — read from disk, fetched
//! from a remote, or pushed by a put — in one pass over its text.
//!
//! [`gate`] walks a `holes.artifact/v1` envelope with a [`JsonReader`],
//! noting the identity fields as they go by, and hands the payload to a
//! typed decoder through a [`Payload`]. The payload mirrors every event the
//! decoder pulls into a compact [`JsonWriter`] over an FNV-1a sink, so the
//! checksum covers the payload's compact rendering without the payload ever
//! being built as a tree or rendered to a string. The gate accepts exactly
//! what the tree gate it replaced accepted: fields in any order, the first
//! occurrence of a field wins, nothing but whitespace may follow the
//! envelope, and the checksum is over the compact payload rendering.

use std::borrow::Cow;
use std::io;

use holes_compiler::Fingerprint;
use holes_core::json::{Json, JsonEvent, JsonReader, JsonWriter};

use super::codec::DecodeError;
use super::{fnv1a_with, SubjectKey, ARTIFACT_FORMAT, FNV_OFFSET};

/// What one pass over an envelope's text decided.
#[derive(Debug)]
pub(super) enum Gated<T> {
    /// The text is not this artifact's envelope: it is not JSON, or a field
    /// is missing or names another artifact, or the checksum disagrees.
    Invalid,
    /// Every gate passed; the payload decoded to `T`, or failed to.
    Valid(Result<T, DecodeError>),
}

/// The envelope's fields beside its payload, all strings.
const FIELDS: [&str; 5] = ["format", "kind", "subject", "fingerprint", "checksum"];

/// Check `text` as the envelope of `(subject, fingerprint, kind)` and decode
/// its payload with `decode`, in one pass.
pub(super) fn gate<T>(
    text: &str,
    subject: SubjectKey,
    fingerprint: Fingerprint,
    kind: &str,
    decode: impl FnOnce(&mut Payload<'_, '_>) -> Result<T, DecodeError>,
) -> Gated<T> {
    let mut reader = JsonReader::new(text);
    let mut decode = Some(decode);
    let mut payload = None;
    // The first occurrence of each identity field: its string, or `None`
    // when it is not a string.
    let mut fields: [Option<Option<String>>; 5] = Default::default();
    if !matches!(reader.next_event(), Ok(Some(JsonEvent::BeginObject))) {
        return Gated::Invalid;
    }
    loop {
        let key = match reader.next_event() {
            Ok(Some(JsonEvent::Key(key))) => key,
            Ok(Some(JsonEvent::EndObject)) => break,
            _ => return Gated::Invalid,
        };
        let field = FIELDS
            .iter()
            .position(|&name| name == key)
            .filter(|&index| fields[index].is_none());
        let read = if let Some(decode) = decode.take_if(|_| key == "payload") {
            let mut tee = Payload::new(&mut reader);
            let decoded = decode(&mut tee);
            tee.finish().map(|sum| payload = Some((sum, decoded)))
        } else if let Some(index) = field {
            reader
                .value()
                .map(|value| {
                    fields[index] = Some(match value {
                        Json::Str(s) => Some(s),
                        _ => None,
                    });
                })
                .map_err(drop)
        } else {
            reader.skip().map_err(drop)
        };
        if read.is_err() {
            return Gated::Invalid;
        }
    }
    if !matches!(reader.next_event(), Ok(None)) {
        return Gated::Invalid;
    }
    let [format, claimed_kind, claimed_subject, claimed_fingerprint, checksum] =
        fields.map(Option::flatten);
    let Some((sum, decoded)) = payload else {
        return Gated::Invalid;
    };
    let valid = format.as_deref() == Some(ARTIFACT_FORMAT)
        && claimed_kind.as_deref() == Some(kind)
        && claimed_subject == Some(subject.to_string())
        && claimed_fingerprint.and_then(|text| text.parse::<Fingerprint>().ok())
            == Some(fingerprint)
        && checksum == Some(format!("{sum:016x}"));
    if valid {
        Gated::Valid(decoded)
    } else {
        Gated::Invalid
    }
}

/// Whether `text` is a valid envelope of `(subject, fingerprint, kind)`,
/// whatever its payload decodes to.
pub(super) fn is_valid(
    text: &str,
    subject: SubjectKey,
    fingerprint: Fingerprint,
    kind: &str,
) -> bool {
    matches!(
        gate(text, subject, fingerprint, kind, |payload| payload.skip()),
        Gated::Valid(_)
    )
}

/// An FNV-1a digest as an [`io::Write`] sink.
struct Fnv(u64);

impl io::Write for Fnv {
    fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        self.0 = fnv1a_with(self.0, bytes);
        Ok(bytes.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// An envelope's payload as a typed decoder reads it: the reader's events
/// from the payload's first to its last, each mirrored into the checksum.
pub(super) struct Payload<'r, 'a> {
    reader: &'r mut JsonReader<'a>,
    checksum: JsonWriter<Fnv>,
    /// Containers the payload has opened and not yet closed.
    depth: usize,
    /// The payload's value has been read to its end.
    complete: bool,
    /// The reader failed: the envelope is not JSON.
    broken: bool,
}

impl<'r, 'a> Payload<'r, 'a> {
    fn new(reader: &'r mut JsonReader<'a>) -> Payload<'r, 'a> {
        Payload {
            reader,
            checksum: JsonWriter::compact(Fnv(FNV_OFFSET)),
            depth: 0,
            complete: false,
            broken: false,
        }
    }

    /// Read what is left of the payload, and return its checksum; `Err`
    /// when the envelope is not JSON.
    fn finish(mut self) -> Result<u64, ()> {
        while !self.complete && self.next().is_ok() {}
        if self.broken {
            return Err(());
        }
        Ok(self.checksum.into_inner().0)
    }

    /// The payload's next event.
    pub(super) fn next(&mut self) -> Result<JsonEvent<'a>, DecodeError> {
        if self.complete {
            return Err("read past the end of the payload".into());
        }
        let event = match self.reader.next_event() {
            Ok(Some(event)) => event,
            _ => {
                self.broken = true;
                return Err("the envelope is not JSON".into());
            }
        };
        match event {
            JsonEvent::BeginObject | JsonEvent::BeginArray => self.depth += 1,
            JsonEvent::EndObject | JsonEvent::EndArray => self.depth -= 1,
            _ => {}
        }
        self.complete = self.depth == 0;
        self.checksum
            .event(&event)
            .expect("hashing into memory cannot fail");
        Ok(event)
    }

    /// Step over the value that starts at the next event.
    pub(super) fn skip(&mut self) -> Result<(), DecodeError> {
        let depth = self.depth;
        loop {
            let event = self.next()?;
            if self.depth < depth {
                return Err("no value to skip".into());
            }
            if self.depth == depth && !matches!(event, JsonEvent::Key(_)) {
                return Ok(());
            }
        }
    }

    /// The value that starts at the next event, as a tree.
    pub(super) fn tree(&mut self) -> Result<Json, DecodeError> {
        if self.complete {
            return Err("read past the end of the payload".into());
        }
        let value = self.reader.value().map_err(|error| {
            self.broken = true;
            error.to_string()
        })?;
        self.complete = self.depth == 0;
        self.checksum
            .value(&value)
            .expect("hashing into memory cannot fail");
        Ok(value)
    }

    /// The next member's key, or `None` at the end of the object.
    pub(super) fn key(&mut self) -> Result<Option<Cow<'a, str>>, DecodeError> {
        match self.next()? {
            JsonEvent::Key(key) => Ok(Some(key)),
            JsonEvent::EndObject => Ok(None),
            _ => Err("expected an object member".into()),
        }
    }

    /// The first event of the next array element, or `None` at the end of
    /// the array.
    pub(super) fn element(&mut self) -> Result<Option<JsonEvent<'a>>, DecodeError> {
        match self.next()? {
            JsonEvent::EndArray => Ok(None),
            event => Ok(Some(event)),
        }
    }

    /// The start of an object (`what` names it in the error).
    pub(super) fn begin_object(&mut self, what: &str) -> Result<(), DecodeError> {
        match self.next()? {
            JsonEvent::BeginObject => Ok(()),
            _ => Err(format!("{what} is not an object")),
        }
    }

    /// The start of an array (`what` names it in the error).
    pub(super) fn begin_array(&mut self, what: &str) -> Result<(), DecodeError> {
        match self.next()? {
            JsonEvent::BeginArray => Ok(()),
            _ => Err(format!("{what} is not an array")),
        }
    }

    /// A string value.
    pub(super) fn string(&mut self, what: &str) -> Result<Cow<'a, str>, DecodeError> {
        match self.next()? {
            JsonEvent::Str(s) => Ok(s),
            _ => Err(format!("`{what}` is not a string")),
        }
    }

    /// A number value parsed as `N`, as `Json::as_u64` and its siblings
    /// parse one.
    pub(super) fn number<N: std::str::FromStr>(&mut self, what: &str) -> Result<N, DecodeError> {
        match self.next()? {
            JsonEvent::Num(text) => text
                .parse()
                .map_err(|_| format!("`{what}` is out of range")),
            _ => Err(format!("`{what}` is not a number")),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::path::PathBuf;
    use std::sync::{Arc, OnceLock};

    use proptest::prelude::*;

    use holes_compiler::{CompilerConfig, Executable, OptLevel, Personality};
    use holes_core::json::Json;
    use holes_core::Violation;
    use holes_debugger::DebuggerKind;

    use super::super::codec::{
        answer_from_json, answer_to_json, answers_from_json, executable_from_json, read_answers,
        read_trace, read_violations, trace_from_json, violations_from_json,
    };
    use super::super::{
        build_envelope, envelope_line, validate_envelope, ArtifactStore, SubjectKey,
    };
    use super::*;
    use crate::triage::{TriageMethod, TriageOutcome};
    use crate::Subject;

    fn config() -> CompilerConfig {
        CompilerConfig::new(Personality::Ccg, OptLevel::O2)
    }

    /// The kind of a ccg configuration's triage answer set.
    const ANSWERS: &str = "triage-gdb";

    /// Real envelopes of every kind one warm ccg subject writes, plus the
    /// per-site triage answer earlier builds wrote.
    struct Envelopes {
        /// The subject's key.
        key: SubjectKey,
        /// The violation whose per-site triage answer is among `texts`.
        violation: Violation,
        /// Each kind with its file text: an executable, a trace, a
        /// violation set, a per-site triage answer and an answer set of
        /// several sites.
        texts: Vec<(String, String)>,
    }

    /// The [`Envelopes`], written once into a temp directory.
    fn envelopes() -> &'static Envelopes {
        static ENVELOPES: OnceLock<Envelopes> = OnceLock::new();
        ENVELOPES.get_or_init(|| {
            let root =
                std::env::temp_dir().join(format!("holes-gate-envelopes-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&root);
            let store = Arc::new(ArtifactStore::open(&root).expect("open store"));
            let subject = Subject::from_seed(7960);
            subject.attach_store(Arc::clone(&store));
            let violations = subject.violations(&config());
            for violation in violations.iter().take(3) {
                let _ = crate::triage::triage(&subject, &config(), violation);
            }
            let violation = violations[0].clone();
            let key = SubjectKey::derive(subject.seed, &subject.source.text);
            // Dropping the subject writes its answer set.
            drop(subject);
            let mut texts: Vec<(String, String)> = ["exe", "trace-gdb", "viol-gdb", ANSWERS]
                .iter()
                .map(|kind| {
                    let path = store.path_for(key, config().fingerprint(), kind);
                    let text =
                        std::fs::read_to_string(path).expect("the warm subject wrote every kind");
                    (kind.to_string(), text)
                })
                .collect();
            let answers = store.load_triage_answers(key, &config()).expect("answers");
            assert!(answers.len() > 1, "the answer set holds several sites");
            let site = ArtifactStore::site_answer_kind(DebuggerKind::GdbLike, &violation);
            let outcome = TriageOutcome {
                culprits: answers[&crate::triage::Site::of(&violation)].clone(),
                method: TriageMethod::FlagSearch,
            };
            let payload = answer_to_json(&violation, &outcome);
            let envelope = build_envelope(key, config().fingerprint(), &site, payload);
            texts.insert(3, (site, envelope_line(&envelope)));
            let _ = std::fs::remove_dir_all(&root);
            Envelopes {
                key,
                violation,
                texts,
            }
        })
    }

    /// The flag search's triage answer for the [`Envelopes`]' violation.
    fn answer_for(json: &Json) -> Result<TriageOutcome, DecodeError> {
        answer_from_json(json, &envelopes().violation, TriageMethod::FlagSearch)
    }

    /// A gate's decision, comparable across the two gates: `None` for an
    /// invalid envelope, else whether and to what the payload decoded.
    fn verdict<T>(gated: Gated<T>) -> Option<Option<T>> {
        match gated {
            Gated::Invalid => None,
            Gated::Valid(decoded) => Some(decoded.ok()),
        }
    }

    /// The tree oracle: parse the whole envelope, validate the tree, then
    /// decode the payload tree.
    fn oracle<T>(
        text: &str,
        key: SubjectKey,
        kind: &str,
        decode: impl FnOnce(&Json) -> Result<T, DecodeError>,
    ) -> Option<Option<T>> {
        let payload = Json::parse(text)
            .ok()
            .and_then(|envelope| validate_envelope(&envelope, key, config().fingerprint(), kind));
        verdict(payload.map_or(Gated::Invalid, |payload| Gated::Valid(decode(&payload))))
    }

    fn executable_for(json: &Json) -> Result<Executable, DecodeError> {
        executable_from_json(json).and_then(|executable| {
            if executable.config == config() {
                Ok(executable)
            } else {
                Err("compiled from another configuration".into())
            }
        })
    }

    /// Both gates over `text` as an envelope of `kind`, twice each: the
    /// decisions must agree with each other and with themselves. Returns
    /// whether the artifact loads.
    fn gates_agree(text: &str, key: SubjectKey, kind: &str) -> bool {
        let fingerprint = config().fingerprint();
        fn twice<T: PartialEq + std::fmt::Debug>(
            mut run: impl FnMut() -> Option<Option<T>>,
        ) -> Option<Option<T>> {
            let first = run();
            assert_eq!(run(), first, "the decision changed between runs");
            first
        }
        match kind {
            "exe" => {
                let streamed = twice(|| {
                    verdict(gate(text, key, fingerprint, kind, |p| {
                        executable_for(&p.tree()?)
                    }))
                });
                assert_eq!(streamed, oracle(text, key, kind, executable_for), "{text}");
                matches!(streamed, Some(Some(_)))
            }
            "trace-gdb" => {
                let streamed = twice(|| verdict(gate(text, key, fingerprint, kind, read_trace)));
                assert_eq!(streamed, oracle(text, key, kind, trace_from_json), "{text}");
                matches!(streamed, Some(Some(_)))
            }
            "viol-gdb" => {
                let streamed =
                    twice(|| verdict(gate(text, key, fingerprint, kind, read_violations)));
                assert_eq!(
                    streamed,
                    oracle(text, key, kind, violations_from_json),
                    "{text}"
                );
                matches!(streamed, Some(Some(_)))
            }
            ANSWERS => {
                let method = TriageMethod::FlagSearch;
                let streamed = twice(|| {
                    verdict(gate(text, key, fingerprint, kind, |p| {
                        read_answers(p, method)
                    }))
                });
                assert_eq!(
                    streamed,
                    oracle(text, key, kind, |json| answers_from_json(json, method)),
                    "{text}"
                );
                matches!(streamed, Some(Some(_)))
            }
            _ => {
                let streamed = twice(|| {
                    verdict(gate(text, key, fingerprint, kind, |p| {
                        answer_for(&p.tree()?)
                    }))
                });
                assert_eq!(streamed, oracle(text, key, kind, answer_for), "{text}");
                matches!(streamed, Some(Some(_)))
            }
        }
    }

    fn count(json: &Json) -> usize {
        1 + match json {
            Json::Arr(items) => items.iter().map(count).sum(),
            Json::Obj(pairs) => pairs.iter().map(|(_, value)| count(value)).sum(),
            _ => 0,
        }
    }

    /// The `n`th node of `json` in preorder.
    fn nth(json: &mut Json, n: usize) -> &mut Json {
        if n == 0 {
            return json;
        }
        let mut n = n - 1;
        let children: Vec<&mut Json> = match json {
            Json::Arr(items) => items.iter_mut().collect(),
            Json::Obj(pairs) => pairs.iter_mut().map(|(_, value)| value).collect(),
            _ => Vec::new(),
        };
        for child in children {
            let size = count(child);
            if n < size {
                return nth(child, n);
            }
            n -= size;
        }
        unreachable!("node index within the tree")
    }

    fn nested(depth: usize) -> Json {
        (0..depth).fold(Json::Null, |inner, _| Json::Arr(vec![inner]))
    }

    /// A value of another shape, from a fixed menu.
    fn odd_value(pick: u64) -> Json {
        match pick % 12 {
            0 => Json::Null,
            1 => Json::Bool(true),
            2 => Json::Num("-1".into()),
            3 => Json::Num("1.5".into()),
            4 => Json::Num("4294967296".into()),
            5 => Json::Num("18446744073709551616".into()),
            6 => Json::str("x"),
            7 => Json::Arr(vec![]),
            8 => Json::Obj(vec![]),
            9 => Json::Arr(vec![Json::str("x"), Json::Null, Json::Null]),
            10 => Json::Num("01".into()),
            _ => nested(120 + (pick as usize / 12) % 16),
        }
    }

    /// Tamper with one node of `json`: replace it, or reorder, duplicate or
    /// drop members of a container.
    fn tamper(json: &mut Json, at: u64, how: u64) {
        let node = nth(json, (at % count(json) as u64) as usize);
        match (node, how % 4) {
            (Json::Obj(pairs), 1) if !pairs.is_empty() => pairs.reverse(),
            (Json::Obj(pairs), 2) if !pairs.is_empty() => {
                let (key, _) = pairs[0].clone();
                let position = (how as usize / 4) % (pairs.len() + 1);
                pairs.insert(position, (key, odd_value(how / 8)));
            }
            (Json::Arr(items), 1 | 2) if !items.is_empty() => {
                let copy = items[0].clone();
                items.insert((how as usize / 4) % (items.len() + 1), copy);
            }
            (Json::Arr(items), 3) if !items.is_empty() => {
                items.remove((how as usize / 4) % items.len());
            }
            (node, _) => *node = odd_value(how / 4),
        }
    }

    /// Byte offsets of the structural characters outside strings, and of
    /// the ASCII alphanumerics a string holds verbatim.
    fn scan(text: &str) -> (Vec<usize>, Vec<usize>) {
        let (mut structural, mut verbatim) = (Vec::new(), Vec::new());
        let (mut in_string, mut escaped, mut hex) = (false, false, 0);
        for (i, byte) in text.bytes().enumerate() {
            if hex > 0 {
                hex -= 1;
            } else if escaped {
                escaped = false;
                hex = if byte == b'u' { 4 } else { 0 };
            } else if in_string {
                match byte {
                    b'\\' => escaped = true,
                    b'"' => in_string = false,
                    b if b.is_ascii_alphanumeric() => verbatim.push(i),
                    _ => {}
                }
            } else if byte == b'"' {
                in_string = true;
            } else if b"{}[],:".contains(&byte) {
                structural.push(i);
            }
        }
        (structural, verbatim)
    }

    /// Apply one structure-aware mutation to a real envelope's text.
    fn mutate(
        text: &str,
        key: SubjectKey,
        kind: &str,
        mutation: usize,
        at: u64,
        other: u64,
    ) -> Vec<u8> {
        let envelope = Json::parse(text).expect("real envelopes parse");
        let Json::Obj(mut pairs) = envelope.clone() else {
            panic!("an envelope is an object");
        };
        let bytes = text.as_bytes();
        match mutation {
            // A bit flip anywhere, even into bytes that are not UTF-8.
            0 => {
                let mut flipped = bytes.to_vec();
                flipped[(at % bytes.len() as u64) as usize] ^= 1 << (other % 8);
                flipped
            }
            1 => bytes[..(at % bytes.len() as u64) as usize].to_vec(),
            // The envelope's fields in another order.
            2 => {
                let by = (at % pairs.len() as u64) as usize;
                pairs.rotate_left(by);
                if other % 2 == 1 {
                    pairs.reverse();
                }
                Json::Obj(pairs).to_compact().into_bytes()
            }
            // A field repeated, before or after its first occurrence, with
            // its own or another value.
            3 => {
                let field = pairs[(at % pairs.len() as u64) as usize].clone();
                let value = if other.is_multiple_of(2) {
                    field.1
                } else {
                    odd_value(other / 2)
                };
                let position = ((other / 32) % (pairs.len() as u64 + 1)) as usize;
                pairs.insert(position, (field.0, value));
                Json::Obj(pairs).to_compact().into_bytes()
            }
            // Whitespace between tokens, or the pretty rendering.
            4 => {
                let (structural, _) = scan(text);
                if other.is_multiple_of(5) {
                    return envelope.to_pretty().into_bytes();
                }
                let mut spaced = text.to_owned();
                for (n, &i) in structural.iter().enumerate().rev() {
                    if (n as u64 + at).is_multiple_of(1 + other % 7) {
                        let space = [" ", "\n", "\t", "\r\n"][(n + at as usize) % 4];
                        spaced.insert_str(i + 1, space);
                    }
                }
                spaced.into_bytes()
            }
            // String characters re-spelled as `\uXXXX` escapes, keys too.
            5 => {
                let (_, verbatim) = scan(text);
                let mut respelled = text.to_owned();
                for (n, &i) in verbatim.iter().enumerate().rev() {
                    if (n as u64 + at).is_multiple_of(1 + other % 5) {
                        let escape = if n % 2 == 0 {
                            format!("\\u{:04x}", bytes[i])
                        } else {
                            format!("\\u{:04X}", bytes[i])
                        };
                        respelled.replace_range(i..=i, &escape);
                    }
                }
                respelled.into_bytes()
            }
            // Deep nesting around the depth limit, in a field of its own.
            6 => {
                let depth = 120 + (at % 16) as usize;
                pairs.insert((other % 6) as usize, ("deep".to_owned(), nested(depth)));
                Json::Obj(pairs).to_compact().into_bytes()
            }
            // An answer set's entry repeated, two neighbours swapped, or
            // an entry found by the other method, under a recomputed
            // checksum: each must be refused.
            10..=12 if kind == ANSWERS => {
                let mut payload = envelope.get("payload").expect("payload").clone();
                let Json::Arr(entries) = &mut payload else {
                    panic!("an answer set is an array");
                };
                let i = (at % (entries.len() as u64 - 1)) as usize;
                match mutation {
                    10 => entries.insert(i, entries[i].clone()),
                    11 => entries.swap(i, i + 1),
                    _ => {
                        let Json::Obj(fields) = &mut entries[i] else {
                            panic!("an answer is an object");
                        };
                        for (name, value) in fields {
                            if name == "method" {
                                *value = Json::str(TriageMethod::Bisection.name());
                            }
                        }
                    }
                }
                build_envelope(key, config().fingerprint(), kind, payload)
                    .to_compact()
                    .into_bytes()
            }
            // A tampered payload under a recomputed checksum, the most
            // frequent mutation: the decoders themselves must agree.
            _ => {
                let mut payload = envelope.get("payload").expect("payload").clone();
                tamper(&mut payload, at, other);
                build_envelope(key, config().fingerprint(), kind, payload)
                    .to_compact()
                    .into_bytes()
            }
        }
    }

    /// The differential tests' scratch: a store root with a sentinel file
    /// beside it that no load may touch.
    struct Sandbox {
        dir: PathBuf,
        store: ArtifactStore,
    }

    impl Sandbox {
        fn new() -> Sandbox {
            let dir = std::env::temp_dir().join(format!(
                "holes-gate-sandbox-{}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(dir.join("sentinel"), "untouched").unwrap();
            let store = ArtifactStore::open(dir.join("store")).unwrap();
            Sandbox { dir, store }
        }

        /// Every file under the sandbox, outside the store root.
        fn outside(&self) -> Vec<PathBuf> {
            let mut files: Vec<PathBuf> = std::fs::read_dir(&self.dir)
                .unwrap()
                .flatten()
                .map(|entry| entry.path())
                .filter(|path| path != &self.dir.join("store"))
                .collect();
            files.sort();
            files
        }
    }

    impl Drop for Sandbox {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }

    /// Load `bytes` through the store as the live file of `kind`: the load
    /// succeeds exactly when `loads` says, and a failure is rejected and
    /// quarantined inside the store root.
    fn store_agrees(sandbox: &Sandbox, key: SubjectKey, kind: &str, bytes: &[u8], loads: bool) {
        let path = sandbox.store.path_for(key, config().fingerprint(), kind);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, bytes).unwrap();
        let before = sandbox.store.stats();
        let loaded = match kind {
            "exe" => sandbox.store.load_executable(key, &config()).is_some(),
            "trace-gdb" => sandbox
                .store
                .load_trace(key, &config(), DebuggerKind::GdbLike)
                .is_some(),
            "viol-gdb" => sandbox
                .store
                .load_violations(key, &config(), DebuggerKind::GdbLike)
                .is_some(),
            ANSWERS => sandbox.store.load_triage_answers(key, &config()).is_some(),
            _ => sandbox
                .store
                .load_site_answer(
                    key,
                    &config(),
                    &envelopes().violation,
                    TriageMethod::FlagSearch,
                )
                .is_some(),
        };
        assert_eq!(loaded, loads, "the store and the gate disagree");
        let after = sandbox.store.stats();
        assert_eq!(after.rejected - before.rejected, usize::from(!loads));
        assert_eq!(after.quarantined - before.quarantined, usize::from(!loads));
        assert_eq!((after.retries, after.store_errors), (0, 0));
        assert_eq!(
            sandbox.outside(),
            [sandbox.dir.join("sentinel")],
            "a load touched a file outside the store root"
        );
        assert_eq!(
            std::fs::read_to_string(sandbox.dir.join("sentinel")).unwrap(),
            "untouched"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn real_envelopes_load_through_both_gates() {
        let Envelopes { key, texts, .. } = envelopes();
        let sandbox = Sandbox::new();
        for (kind, text) in texts {
            assert!(
                gates_agree(text, *key, kind),
                "a real {kind} envelope was refused"
            );
            store_agrees(&sandbox, *key, kind, text.as_bytes(), true);
        }
    }

    #[test]
    fn malformed_answer_sets_are_rejected_and_quarantined() {
        let Envelopes { key, texts, .. } = envelopes();
        let (kind, text) = texts.iter().find(|(kind, _)| kind == ANSWERS).unwrap();
        let sandbox = Sandbox::new();
        for mutation in 10..=12 {
            for at in 0..4 {
                let bytes = mutate(text, *key, kind, mutation, at, 0);
                let text = std::str::from_utf8(&bytes).expect("UTF-8");
                assert!(!gates_agree(text, *key, kind), "mutation {mutation} loaded");
                store_agrees(&sandbox, *key, kind, &bytes, false);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The one-pass gate, attacked: take a real envelope of each kind,
        /// a per-site triage answer and an answer set included, apply a
        /// structure-aware mutation — a bit flip, a truncation, reordered
        /// or repeated fields, whitespace or `\uXXXX` re-spellings,
        /// nesting around the depth limit, a tampered payload under a
        /// recomputed checksum, or, in an answer set, a repeated site,
        /// unsorted entries or an entry of the other method — and require
        /// the same decision and the same artifact as the tree oracle, the
        /// same decision on every run, and a store load that never panics,
        /// never retries, and never touches a file outside its root. The
        /// answer-set mutations must be rejected and quarantined.
        #[test]
        fn one_pass_gate_agrees_with_the_tree_oracle_on_mutated_envelopes(
            kind_index in 0usize..5,
            mutation in 0usize..13,
            at in any::<u64>(),
            other in any::<u64>(),
        ) {
            let Envelopes { key, texts, .. } = envelopes();
            let (kind, text) = &texts[kind_index];
            let bytes = mutate(text, *key, kind, mutation, at, other);
            let loads = match std::str::from_utf8(&bytes) {
                Ok(text) => gates_agree(text, *key, kind),
                Err(_) => false,
            };
            if kind == ANSWERS && mutation >= 10 {
                prop_assert!(!loads, "a malformed answer set loaded");
            }
            store_agrees(&Sandbox::new(), *key, kind, &bytes, loads);
        }
    }
}
