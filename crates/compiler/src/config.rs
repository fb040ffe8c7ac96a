//! Compiler configurations: personalities, optimization levels, versions and
//! pass schedules.
//!
//! The paper evaluates two compilation systems (gcc and clang), several
//! optimization levels (`-O0`, `-O1`, `-O2`, `-O3`, `-Og`, `-Os`, `-Oz`) and
//! several releases of each compiler. Our substitutes are two *personalities*
//! with distinct pass pipelines — [`Personality::Ccg`] (gcc-like) and
//! [`Personality::Lcc`] (clang-like) — a matching set of levels, and a list
//! of version profiles per personality. Versions differ in which injected
//! defects are present (see [`crate::defects`]) and, mildly, in which passes
//! are scheduled, reproducing the regression trends of Figure 1 and Table 4.

use std::collections::BTreeSet;

pub use holes_machine::BackendKind;

/// The two compiler personalities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Personality {
    /// The gcc-like personality (`ccg`), debugged with the gdb-like debugger.
    Ccg,
    /// The clang-like personality (`lcc`), debugged with the lldb-like
    /// debugger.
    Lcc,
}

impl Personality {
    /// Short name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Personality::Ccg => "ccg",
            Personality::Lcc => "lcc",
        }
    }

    /// Version names, oldest first. The last two entries are the paper's
    /// "trunk" and the patched / partially-fixed variant used by the
    /// regression study (§5.4).
    pub fn version_names(self) -> &'static [&'static str] {
        match self {
            Personality::Ccg => &["4.8", "6.5", "8.4", "10.3", "trunk", "patched"],
            Personality::Lcc => &["5.0", "7.0", "9.0", "11.1", "trunk", "trunk-star"],
        }
    }

    /// Index of the trunk version.
    pub fn trunk(self) -> usize {
        4
    }

    /// The optimization levels this personality supports, mirroring the
    /// paper's setup (`-O1` is an alias of `-Og` for clang and is therefore
    /// not listed for the lcc personality).
    pub fn levels(self) -> &'static [OptLevel] {
        match self {
            Personality::Ccg => &[
                OptLevel::Og,
                OptLevel::O1,
                OptLevel::O2,
                OptLevel::O3,
                OptLevel::Os,
                OptLevel::Oz,
            ],
            Personality::Lcc => &[
                OptLevel::Og,
                OptLevel::O2,
                OptLevel::O3,
                OptLevel::Os,
                OptLevel::Oz,
            ],
        }
    }
}

impl std::fmt::Display for Personality {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Failed parse of a [`Personality`], [`OptLevel`], or version name from a
/// command-line flag or a report file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseConfigError {
    what: &'static str,
    input: String,
}

impl ParseConfigError {
    fn new(what: &'static str, input: &str) -> ParseConfigError {
        ParseConfigError {
            what,
            input: input.to_owned(),
        }
    }
}

impl std::fmt::Display for ParseConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown {}: `{}`", self.what, self.input)
    }
}

impl std::error::Error for ParseConfigError {}

impl std::str::FromStr for Personality {
    type Err = ParseConfigError;

    /// Parse a personality name as spelled in reports and CLI flags
    /// (`ccg` or `lcc`, case-insensitive).
    fn from_str(s: &str) -> Result<Personality, ParseConfigError> {
        match s.to_ascii_lowercase().as_str() {
            "ccg" => Ok(Personality::Ccg),
            "lcc" => Ok(Personality::Lcc),
            _ => Err(ParseConfigError::new("personality", s)),
        }
    }
}

impl Personality {
    /// The index of a version by its [`Personality::version_names`] name
    /// (`"trunk"`, `"8.4"`, ...), if that version exists for this
    /// personality.
    pub fn version_index(self, name: &str) -> Option<usize> {
        self.version_names().iter().position(|&v| v == name)
    }
}

/// Optimization levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OptLevel {
    /// No optimization; the debug-information baseline.
    O0,
    /// The debugger-friendly level.
    Og,
    /// Light optimization.
    O1,
    /// Standard optimization.
    O2,
    /// Aggressive optimization.
    O3,
    /// Optimize for size.
    Os,
    /// Optimize for size aggressively.
    Oz,
}

impl OptLevel {
    /// All levels including `O0`.
    pub const ALL: [OptLevel; 7] = [
        OptLevel::O0,
        OptLevel::Og,
        OptLevel::O1,
        OptLevel::O2,
        OptLevel::O3,
        OptLevel::Os,
        OptLevel::Oz,
    ];

    /// The flag spelling (`-O2`, `-Og`, ...).
    pub fn flag(self) -> &'static str {
        match self {
            OptLevel::O0 => "-O0",
            OptLevel::Og => "-Og",
            OptLevel::O1 => "-O1",
            OptLevel::O2 => "-O2",
            OptLevel::O3 => "-O3",
            OptLevel::Os => "-Os",
            OptLevel::Oz => "-Oz",
        }
    }
}

impl std::fmt::Display for OptLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.flag())
    }
}

impl std::str::FromStr for OptLevel {
    type Err = ParseConfigError;

    /// Parse an optimization level from its flag spelling, with or without
    /// the `-O` prefix (`-O2`, `O2`, and `2` all parse to [`OptLevel::O2`];
    /// the letter suffixes are case-sensitive, as on real compilers).
    fn from_str(s: &str) -> Result<OptLevel, ParseConfigError> {
        let suffix = s
            .strip_prefix("-O")
            .or_else(|| s.strip_prefix('O'))
            .unwrap_or(s);
        OptLevel::ALL
            .iter()
            .copied()
            .find(|level| &level.flag()[2..] == suffix)
            .ok_or_else(|| ParseConfigError::new("optimization level", s))
    }
}

/// A stable identity hash for a [`CompilerConfig`].
///
/// Equal configurations always produce equal fingerprints: the 64-bit
/// FNV-1a runs over a canonical, length-prefixed encoding of every field
/// that can influence compilation output — personality, version, level,
/// disabled passes, pass budget, and defect disabling. Like any 64-bit
/// digest it is not injective (distinct configurations collide with
/// probability ~2⁻⁶⁴), so exact-identity maps — such as the in-memory
/// artifact cache of `holes_pipeline` — key on the full `CompilerConfig`
/// instead; the fingerprint is for logging and for on-disk cache keys,
/// where it is stable across processes and platforms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u64);

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl std::str::FromStr for Fingerprint {
    type Err = ParseConfigError;

    /// Parse a 16-digit hex spelling (case-insensitive; `Display` always
    /// emits lowercase) — the round-trip the on-disk artifact store uses to
    /// validate the fingerprint recorded in each artifact envelope.
    fn from_str(s: &str) -> Result<Fingerprint, ParseConfigError> {
        if s.len() != 16 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(ParseConfigError::new("fingerprint", s));
        }
        u64::from_str_radix(s, 16)
            .map(Fingerprint)
            .map_err(|_| ParseConfigError::new("fingerprint", s))
    }
}

/// A complete compiler configuration: what the paper would call
/// "compiler X version Y at level Z", plus the triage knobs.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CompilerConfig {
    /// The personality (pipeline family).
    pub personality: Personality,
    /// Index into [`Personality::version_names`].
    pub version: usize,
    /// Optimization level.
    pub level: OptLevel,
    /// Passes disabled by `-fno-<pass>`-style flags (the gcc-style triage
    /// mechanism of §4.3).
    pub disabled_passes: BTreeSet<String>,
    /// Stop the pipeline after this many passes (the clang
    /// `-opt-bisect-limit`-style triage mechanism of §4.3).
    pub pass_budget: Option<usize>,
    /// Disable every injected defect (used by tests to obtain the
    /// hypothetical defect-free compiler).
    pub disable_defects: bool,
    /// The machine model code is generated for ([`BackendKind::Reg`] by
    /// default). Optimization passes are backend-independent; only the
    /// code-generation lowering, the emitted location descriptions, and the
    /// backend-gated defects differ.
    pub backend: BackendKind,
}

impl CompilerConfig {
    /// Configuration for a personality's trunk version at a level.
    pub fn new(personality: Personality, level: OptLevel) -> CompilerConfig {
        CompilerConfig {
            personality,
            version: personality.trunk(),
            level,
            disabled_passes: BTreeSet::new(),
            pass_budget: None,
            disable_defects: false,
            backend: BackendKind::Reg,
        }
    }

    /// Same configuration with a different version index.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range for the personality.
    pub fn with_version(mut self, version: usize) -> CompilerConfig {
        assert!(version < self.personality.version_names().len());
        self.version = version;
        self
    }

    /// Same configuration with a pass disabled.
    pub fn with_disabled_pass(mut self, pass: &str) -> CompilerConfig {
        self.disabled_passes.insert(pass.to_owned());
        self
    }

    /// Same configuration with a pass budget (bisection).
    pub fn with_pass_budget(mut self, budget: usize) -> CompilerConfig {
        self.pass_budget = Some(budget);
        self
    }

    /// Same configuration with all injected defects disabled.
    pub fn without_defects(mut self) -> CompilerConfig {
        self.disable_defects = true;
        self
    }

    /// Same configuration targeting a different backend.
    pub fn with_backend(mut self, backend: BackendKind) -> CompilerConfig {
        self.backend = backend;
        self
    }

    /// The version name.
    pub fn version_name(&self) -> &'static str {
        self.personality.version_names()[self.version]
    }

    /// The ordered pass schedule for this configuration, before applying
    /// `disabled_passes` and `pass_budget` (the pipeline runner applies
    /// those).
    pub fn pass_schedule(&self) -> Vec<&'static str> {
        let mut schedule = base_schedule(self.personality, self.level);
        // Version-specific tweaks.
        match self.personality {
            Personality::Lcc => {
                // Recent lcc releases enable loop removal even at -Og/-Os,
                // mirroring the paper's observation on the latest clang.
                if self.version >= 3
                    && matches!(self.level, OptLevel::Og | OptLevel::Os)
                    && !schedule.contains(&"loop-unroll")
                {
                    if let Some(pos) = schedule.iter().position(|p| *p == "lsr") {
                        schedule.insert(pos, "loop-unroll");
                    }
                }
            }
            Personality::Ccg => {
                // Early ccg releases lacked the early value-range pass.
                if self.version < 2 {
                    schedule.retain(|p| *p != "evrp");
                }
            }
        }
        schedule
    }

    /// The passes the pipeline runs, in order: [`Self::pass_schedule`]
    /// without `disabled_passes`. A `pass_budget` counts passes of this
    /// schedule, so budget `k` names its pass `k - 1`.
    pub fn effective_schedule(&self) -> Vec<&'static str> {
        let mut schedule = self.pass_schedule();
        schedule.retain(|pass| !self.disabled_passes.contains(*pass));
        schedule
    }

    /// The boolean `-fno-<pass>` style flags available for triage at this
    /// configuration: one per scheduled pass.
    pub fn triage_flags(&self) -> Vec<&'static str> {
        self.pass_schedule()
    }

    /// The configuration's stable identity (see [`Fingerprint`]).
    pub fn fingerprint(&self) -> Fingerprint {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
        let mut hash = FNV_OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &byte in bytes {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(FNV_PRIME);
            }
        };
        eat(&[match self.personality {
            Personality::Ccg => 1,
            Personality::Lcc => 2,
        }]);
        eat(&(self.version as u64).to_le_bytes());
        eat(&[self.level as u8 + 1]);
        match self.pass_budget {
            None => eat(&[0]),
            Some(budget) => {
                eat(&[1]);
                eat(&(budget as u64).to_le_bytes());
            }
        }
        eat(&[u8::from(self.disable_defects)]);
        // BTreeSet iterates in sorted order, so the encoding is canonical;
        // the length prefixes keep pass-name concatenations unambiguous.
        eat(&(self.disabled_passes.len() as u64).to_le_bytes());
        for pass in &self.disabled_passes {
            eat(&(pass.len() as u64).to_le_bytes());
            eat(pass.as_bytes());
        }
        // The backend is encoded only when it is not the default register
        // VM: the default's encoding must stay byte-identical to the
        // pre-backend era, or every existing on-disk artifact store would
        // silently go cold (the pinned-fingerprint test guards this).
        if self.backend != BackendKind::Reg {
            eat(b"backend");
            eat(self.backend.name().as_bytes());
        }
        Fingerprint(hash)
    }

    /// A short human-readable description.
    pub fn describe(&self) -> String {
        let mut text = format!(
            "{} {} {}",
            self.personality.name(),
            self.version_name(),
            self.level.flag()
        );
        if self.backend != BackendKind::Reg {
            text.push_str(&format!(" [{}]", self.backend));
        }
        text
    }
}

fn base_schedule(personality: Personality, level: OptLevel) -> Vec<&'static str> {
    use OptLevel::*;
    match personality {
        Personality::Lcc => match level {
            O0 => vec![],
            Og | O1 => vec![
                "simplifycfg",
                "sroa",
                "instcombine",
                "loop-rotate",
                "lsr",
                "gvn",
                "dce",
                "simplifycfg-late",
            ],
            O2 | O3 => vec![
                "simplifycfg",
                "sroa",
                "instcombine",
                "ipsccp",
                "inline",
                "loop-rotate",
                "indvars",
                "loop-unroll",
                "lsr",
                "gvn",
                "dce",
                "dse",
                "simplifycfg-late",
                "machine-scheduler",
            ],
            Os => vec![
                "simplifycfg",
                "sroa",
                "instcombine",
                "ipsccp",
                "inline",
                "loop-rotate",
                "lsr",
                "gvn",
                "dce",
                "dse",
                "simplifycfg-late",
                "machine-scheduler",
            ],
            Oz => vec![
                "simplifycfg",
                "sroa",
                "instcombine",
                "ipsccp",
                "loop-rotate",
                "lsr",
                "gvn",
                "dce",
                "dse",
                "simplifycfg-late",
                "machine-scheduler",
            ],
        },
        Personality::Ccg => match level {
            O0 => vec![],
            Og => vec![
                "tree-ccp",
                "tree-fre",
                "tree-dce",
                "cprop-registers",
                "cfg-cleanup",
            ],
            O1 => vec![
                "tree-ccp",
                "tree-fre",
                "ipa-pure-const",
                "inline",
                "tree-dce",
                "ivopts",
                "cprop-registers",
                "cfg-cleanup",
            ],
            O2 => vec![
                "tree-ccp",
                "evrp",
                "tree-fre",
                "ipa-pure-const",
                "inline",
                "ipa-sra",
                "tree-dce",
                "tree-dse",
                "ivopts",
                "tree-vrp",
                "cprop-registers",
                "cfg-cleanup",
                "schedule-insns2",
                "toplevel-reorder",
            ],
            O3 => vec![
                "tree-ccp",
                "evrp",
                "tree-fre",
                "ipa-pure-const",
                "inline",
                "ipa-sra",
                "tree-dce",
                "tree-dse",
                "cunroll",
                "ivopts",
                "tree-vrp",
                "cprop-registers",
                "cfg-cleanup",
                "schedule-insns2",
                "toplevel-reorder",
            ],
            Os => vec![
                "tree-ccp",
                "evrp",
                "tree-fre",
                "ipa-pure-const",
                "inline",
                "ipa-sra",
                "tree-dce",
                "tree-dse",
                "cunroll",
                "ivopts",
                "tree-vrp",
                "cprop-registers",
                "cfg-cleanup",
                "schedule-insns2",
                "toplevel-reorder",
            ],
            Oz => vec![
                "tree-ccp",
                "evrp",
                "tree-fre",
                "ipa-pure-const",
                "ipa-sra",
                "tree-dce",
                "tree-dse",
                "cunroll",
                "ivopts",
                "tree-vrp",
                "cprop-registers",
                "cfg-cleanup",
                "schedule-insns2",
                "toplevel-reorder",
            ],
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn o0_has_no_passes() {
        for p in [Personality::Ccg, Personality::Lcc] {
            let cfg = CompilerConfig::new(p, OptLevel::O0);
            assert!(cfg.pass_schedule().is_empty());
        }
    }

    #[test]
    fn og_has_fewer_passes_than_o2() {
        for p in [Personality::Ccg, Personality::Lcc] {
            let og = CompilerConfig::new(p, OptLevel::Og).pass_schedule().len();
            let o2 = CompilerConfig::new(p, OptLevel::O2).pass_schedule().len();
            assert!(og < o2, "{p}: Og should schedule fewer passes than O2");
        }
    }

    #[test]
    fn lcc_recent_versions_unroll_at_og() {
        let old = CompilerConfig::new(Personality::Lcc, OptLevel::Og).with_version(0);
        let new = CompilerConfig::new(Personality::Lcc, OptLevel::Og);
        assert!(!old.pass_schedule().contains(&"loop-unroll"));
        assert!(new.pass_schedule().contains(&"loop-unroll"));
    }

    #[test]
    fn version_names_have_six_entries() {
        for p in [Personality::Ccg, Personality::Lcc] {
            assert_eq!(p.version_names().len(), 6);
            assert_eq!(p.version_names()[p.trunk()], "trunk");
        }
    }

    #[test]
    fn config_builders_compose() {
        let cfg = CompilerConfig::new(Personality::Ccg, OptLevel::O2)
            .with_version(2)
            .with_disabled_pass("tree-ccp")
            .with_pass_budget(3)
            .without_defects();
        assert_eq!(cfg.version_name(), "8.4");
        assert!(cfg.disabled_passes.contains("tree-ccp"));
        assert_eq!(cfg.pass_budget, Some(3));
        assert!(cfg.disable_defects);
        assert!(cfg.describe().contains("-O2"));
    }

    #[test]
    fn fingerprints_separate_every_identity_field() {
        let base = CompilerConfig::new(Personality::Ccg, OptLevel::O2);
        let same = CompilerConfig::new(Personality::Ccg, OptLevel::O2);
        assert_eq!(base.fingerprint(), same.fingerprint());
        let variants = [
            CompilerConfig::new(Personality::Lcc, OptLevel::O2),
            CompilerConfig::new(Personality::Ccg, OptLevel::O3),
            base.clone().with_version(0),
            base.clone().with_disabled_pass("inline"),
            base.clone().with_pass_budget(3),
            base.clone().with_pass_budget(0),
            base.clone().without_defects(),
            base.clone().with_backend(BackendKind::Stack),
            CompilerConfig::new(Personality::Lcc, OptLevel::O2).with_backend(BackendKind::Stack),
        ];
        let mut fingerprints: Vec<Fingerprint> =
            variants.iter().map(CompilerConfig::fingerprint).collect();
        fingerprints.push(base.fingerprint());
        fingerprints.sort_unstable();
        let distinct = fingerprints.len();
        fingerprints.dedup();
        assert_eq!(fingerprints.len(), distinct, "fingerprint collision");
    }

    #[test]
    fn fingerprint_is_stable_across_processes() {
        // Pinned value: guards the canonical encoding (an on-disk cache would
        // silently go cold if this ever changed under a refactor).
        let config = CompilerConfig::new(Personality::Ccg, OptLevel::O2)
            .with_disabled_pass("inline")
            .with_pass_budget(3);
        assert_eq!(config.fingerprint(), Fingerprint(0x272d_91e6_aa38_707a));
        // Re-inserting an already-disabled pass is identity.
        let expected = config.clone().fingerprint();
        assert_eq!(
            config.clone().with_disabled_pass("inline").fingerprint(),
            expected
        );
        // Selecting the default backend explicitly is identity too: only a
        // non-default backend extends the canonical encoding, so every
        // pre-backend on-disk artifact key stays warm.
        assert_eq!(
            config.with_backend(BackendKind::Reg).fingerprint(),
            expected
        );
    }

    #[test]
    fn backend_is_part_of_the_identity_and_description() {
        let reg = CompilerConfig::new(Personality::Ccg, OptLevel::O2);
        let stack = reg.clone().with_backend(BackendKind::Stack);
        assert_ne!(reg.fingerprint(), stack.fingerprint());
        assert_ne!(reg, stack);
        assert!(!reg.describe().contains("stack"));
        assert!(stack.describe().contains("[stack]"));
    }

    #[test]
    fn fingerprints_round_trip_through_their_hex_spelling() {
        for config in [
            CompilerConfig::new(Personality::Ccg, OptLevel::O0),
            CompilerConfig::new(Personality::Lcc, OptLevel::Oz)
                .with_disabled_pass("gvn")
                .with_pass_budget(2),
        ] {
            let fingerprint = config.fingerprint();
            let spelled = fingerprint.to_string();
            assert_eq!(spelled.len(), 16);
            assert_eq!(spelled.parse::<Fingerprint>(), Ok(fingerprint));
        }
        // Leading zeros survive the round trip.
        assert_eq!(
            "00000000000000ff".parse::<Fingerprint>(),
            Ok(Fingerprint(0xff))
        );
        for bad in ["", "ff", "00000000000000zz", "0123456789abcdef0"] {
            assert!(bad.parse::<Fingerprint>().is_err(), "{bad:?}");
        }
    }

    #[test]
    fn personalities_and_levels_round_trip_through_their_spellings() {
        for personality in [Personality::Ccg, Personality::Lcc] {
            assert_eq!(personality.name().parse(), Ok(personality));
            for (index, name) in personality.version_names().iter().enumerate() {
                assert_eq!(personality.version_index(name), Some(index));
            }
            assert_eq!(personality.version_index("no-such-version"), None);
        }
        for level in OptLevel::ALL {
            assert_eq!(level.flag().parse(), Ok(level));
            assert_eq!(level.flag()[1..].parse(), Ok(level), "without dash");
            assert_eq!(level.flag()[2..].parse(), Ok(level), "suffix only");
        }
        assert!("gcc".parse::<Personality>().is_err());
        assert!("-O9".parse::<OptLevel>().is_err());
        assert!(
            "og".parse::<OptLevel>().is_err(),
            "suffix is case-sensitive"
        );
        let err = "-O9".parse::<OptLevel>().unwrap_err();
        assert!(err.to_string().contains("-O9"));
    }

    #[test]
    fn lcc_levels_skip_o1() {
        assert!(!Personality::Lcc.levels().contains(&OptLevel::O1));
        assert!(Personality::Ccg.levels().contains(&OptLevel::O1));
    }
}
