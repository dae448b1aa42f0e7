//! Checkpoint/resume journal for long [`Study`](crate::study::Study)
//! runs.
//!
//! A [`StudyJournal`] is a versioned, append-only, line-oriented text
//! file recording one line per finished scenario slot — success or
//! structured failure — flushed as each worker finishes, so a process
//! killed mid-study loses at most the scenarios that were in flight.
//! [`Study::run_checkpointed`](crate::study::Study::run_checkpointed)
//! opens the journal, skips every journaled slot, re-runs the rest, and
//! merges the two sets into a report that is **bit-identical to the
//! uninterrupted run at any thread count**: all floating-point payloads
//! are serialised as exact IEEE-754 bit patterns (`f64::to_bits`, hex),
//! never as decimal round-trips, and a resumed slot adopts its pattern
//! group's analysis exactly as it would have in the uninterrupted run
//! (the batch analyses each group from its first scenario, journaled or
//! not), so its solver counters match too.
//!
//! The journal is bound to its study by a fingerprint over every
//! [`ScenarioSpec`] (FNV-1a over the specs' debug
//! renderings) plus the scenario count; resuming against a journal from
//! a different study fails with [`CmosaicError::Journal`] instead of
//! silently merging foreign results. A torn trailing line — the expected
//! artefact of a kill mid-append — is ignored, as is anything after it.

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::Path;
use std::sync::{Mutex, PoisonError};

use cmosaic_materials::units::{Kelvin, VolumetricFlow};
use cmosaic_thermal::SolverStats;

use crate::batch::{RecoveryRecord, ScenarioError, ScenarioOutcome, SlotError};
use crate::metrics::RunMetrics;
use crate::scenario::{Fnv1a, ScenarioSpec};
use crate::CmosaicError;

/// Journal format version. In v5 every scenario of a pattern group
/// adopts the group's analysis, so a direct-LU slot reads zero full
/// factorisations and one adopted symbolic where a v4 journal's first
/// slot of each group read one and zero; v4 journals are refused rather
/// than merged, and so are v3 journals, whose recovery counts follow
/// the old two-rung backend ladder.
const VERSION: u32 = 5;

/// FNV-1a fingerprint binding a journal to its study: folds the ordered
/// per-spec [`ScenarioSpec::fingerprint`] values, plus the count, so the
/// journal key and any per-spec cache key derive from the same identity.
/// Any change to a scenario — axes, seeds, duration, fault plans —
/// changes the fingerprint and invalidates old journals.
pub fn fingerprint(specs: &[ScenarioSpec]) -> u64 {
    let mut h = Fnv1a::new();
    h.eat(&(specs.len() as u64).to_le_bytes());
    for spec in specs {
        h.eat(&spec.fingerprint().to_le_bytes());
    }
    h.finish()
}

/// An append-only on-disk record of finished study slots (see the
/// [module docs](self)).
#[derive(Debug)]
pub struct StudyJournal {
    completed: Vec<Option<Result<ScenarioOutcome, SlotError>>>,
    file: Mutex<File>,
}

impl StudyJournal {
    /// Opens (or creates) the journal at `path` for a study of
    /// `scenarios` slots with the given spec `fingerprint`, loading any
    /// slots a previous run already journaled.
    ///
    /// # Errors
    ///
    /// [`CmosaicError::Journal`] when the file cannot be opened/read,
    /// or when an existing journal's version, fingerprint or scenario
    /// count does not match this study.
    pub fn open(
        path: &Path,
        fingerprint: u64,
        scenarios: usize,
    ) -> Result<StudyJournal, CmosaicError> {
        let journal_err = |detail: String| CmosaicError::Journal { detail };
        let mut file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(path)
            .map_err(|e| journal_err(format!("cannot open {}: {e}", path.display())))?;
        let mut text = String::new();
        file.read_to_string(&mut text)
            .map_err(|e| journal_err(format!("cannot read {}: {e}", path.display())))?;

        let mut completed: Vec<Option<Result<ScenarioOutcome, SlotError>>> =
            (0..scenarios).map(|_| None).collect();
        if text.is_empty() {
            let header =
                format!("cmosaic-study-journal v{VERSION} fingerprint={fingerprint:016x} scenarios={scenarios}\n");
            file.write_all(header.as_bytes())
                .and_then(|()| file.flush())
                .map_err(|e| journal_err(format!("cannot write {}: {e}", path.display())))?;
        } else {
            let mut lines = text.split_inclusive('\n');
            let header = lines.next().unwrap_or("");
            let expected = format!(
                "cmosaic-study-journal v{VERSION} fingerprint={fingerprint:016x} scenarios={scenarios}"
            );
            if header.trim_end_matches('\n') != expected {
                return Err(journal_err(format!(
                    "{} does not belong to this study (found `{}`, expected `{expected}`)",
                    path.display(),
                    header.trim_end_matches('\n'),
                )));
            }
            let mut kept = header.len();
            for line in lines {
                // A torn tail from a kill mid-append lacks its newline or
                // parses as garbage; everything from the first such line
                // on is dropped and simply re-run.
                let Some((index, slot)) = line.strip_suffix('\n').and_then(parse_slot_line) else {
                    break;
                };
                if index >= scenarios {
                    break;
                }
                completed[index] = Some(slot);
                kept += line.len();
            }
            // Cut the dropped tail off, so the next append starts a line
            // of its own instead of gluing onto the fragment.
            if kept < text.len() {
                file.set_len(kept as u64)
                    .map_err(|e| journal_err(format!("cannot truncate {}: {e}", path.display())))?;
            }
        }
        Ok(StudyJournal {
            completed,
            file: Mutex::new(file),
        })
    }

    /// The slots a previous run already finished, index-aligned with the
    /// study's scenarios (`None` = still to run).
    pub fn completed(&self) -> &[Option<Result<ScenarioOutcome, SlotError>>] {
        &self.completed
    }

    /// How many slots are already journaled.
    pub fn completed_count(&self) -> usize {
        self.completed.iter().filter(|s| s.is_some()).count()
    }

    /// Appends one finished slot and flushes it to disk. Called from
    /// batch workers as each scenario finishes; append order across
    /// threads is arbitrary (lines are keyed by slot index). Best
    /// effort: an append that fails only costs the slot a re-run on the
    /// next resume, so I/O errors are swallowed rather than aborting a
    /// batch that is otherwise making progress.
    pub fn record(&self, index: usize, slot: &Result<ScenarioOutcome, SlotError>) {
        let line = render_slot_line(index, slot);
        let mut file = self.file.lock().unwrap_or_else(PoisonError::into_inner);
        let _ = file.write_all(line.as_bytes()).and_then(|()| file.flush());
    }
}

// ---- Serialisation. Line-oriented, space-separated, positional. All
// f64 payloads travel as 16-hex-digit IEEE-754 bit patterns so a
// journaled value is *the* value, bit for bit; strings travel hex-coded
// so they can never contain a separator.

fn hex_f64(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn parse_hex_f64(tok: &str) -> Option<f64> {
    (tok.len() == 16)
        .then(|| u64::from_str_radix(tok, 16).ok().map(f64::from_bits))
        .flatten()
}

fn hex_str(s: &str) -> String {
    s.bytes().map(|b| format!("{b:02x}")).collect()
}

fn parse_hex_str(tok: &str) -> Option<String> {
    if !tok.len().is_multiple_of(2) {
        return None;
    }
    let bytes: Option<Vec<u8>> = (0..tok.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&tok[i..i + 2], 16).ok())
        .collect();
    String::from_utf8(bytes?).ok()
}

fn render_recovery(r: &RecoveryRecord) -> String {
    format!("{} {} {}", r.attempts, r.backend_demotions, r.dt_halvings)
}

fn render_slot_line(index: usize, slot: &Result<ScenarioOutcome, SlotError>) -> String {
    match slot {
        Ok(o) => {
            let m = &o.metrics;
            let s = &o.solver;
            format!(
                "slot {index} ok {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {}\n",
                render_recovery(&o.recovery),
                hex_f64(m.hotspot_time_per_core),
                hex_f64(m.hotspot_time_any),
                hex_f64(m.peak_temperature.0),
                hex_f64(m.chip_energy),
                hex_f64(m.pump_energy),
                hex_f64(m.perf_loss_mean),
                hex_f64(m.perf_loss_max),
                m.mean_flow.map_or("none".to_string(), |f| hex_f64(f.0)),
                m.seconds,
                s.full_factorizations,
                s.refactorizations,
                s.pivot_fallbacks,
                s.value_updates,
                s.in_place_solves,
                s.workspace_grows,
                s.adopted_symbolics,
                s.iterative_solves,
                s.iterative_iterations,
                s.iterative_fallbacks,
                s.mg_cycles,
                s.mg_smooth_sweeps,
                s.mg_coarse_solves,
            )
        }
        Err(e) => {
            let kind = match &e.error {
                ScenarioError::Panicked { message } => {
                    format!("panicked {}", hex_str(message))
                }
                ScenarioError::Diverged { epoch, cell, value } => {
                    format!("diverged {epoch} {cell} {}", hex_f64(*value))
                }
                ScenarioError::Failed { detail } => format!("failed {}", hex_str(detail)),
            };
            format!("slot {index} err {} {kind}\n", render_recovery(&e.recovery))
        }
    }
}

fn parse_slot_line(line: &str) -> Option<(usize, Result<ScenarioOutcome, SlotError>)> {
    let toks: Vec<&str> = line.split(' ').collect();
    // Six tokens reach the end of the recovery record; a line torn
    // before that is dropped like any other torn tail.
    if toks.len() < 6 || toks[0] != "slot" {
        return None;
    }
    let index: usize = toks[1].parse().ok()?;
    let recovery = RecoveryRecord {
        attempts: toks[3].parse().ok()?,
        backend_demotions: toks[4].parse().ok()?,
        dt_halvings: toks[5].parse().ok()?,
    };
    match toks[2] {
        "ok" => {
            if toks.len() != 28 {
                return None;
            }
            let f = |i: usize| parse_hex_f64(toks[i]);
            let u = |i: usize| toks[i].parse::<u64>().ok();
            let metrics = RunMetrics {
                hotspot_time_per_core: f(6)?,
                hotspot_time_any: f(7)?,
                peak_temperature: Kelvin(f(8)?),
                chip_energy: f(9)?,
                pump_energy: f(10)?,
                perf_loss_mean: f(11)?,
                perf_loss_max: f(12)?,
                mean_flow: if toks[13] == "none" {
                    None
                } else {
                    Some(VolumetricFlow(parse_hex_f64(toks[13])?))
                },
                seconds: toks[14].parse().ok()?,
            };
            let solver = SolverStats {
                full_factorizations: u(15)?,
                refactorizations: u(16)?,
                pivot_fallbacks: u(17)?,
                value_updates: u(18)?,
                in_place_solves: u(19)?,
                workspace_grows: u(20)?,
                adopted_symbolics: u(21)?,
                iterative_solves: u(22)?,
                iterative_iterations: u(23)?,
                iterative_fallbacks: u(24)?,
                ilu_refreshes: 0,
                mg_cycles: u(25)?,
                mg_smooth_sweeps: u(26)?,
                mg_coarse_solves: u(27)?,
            };
            Some((
                index,
                Ok(ScenarioOutcome {
                    index,
                    metrics,
                    solver,
                    recovery,
                }),
            ))
        }
        "err" => {
            let error = match *toks.get(6)? {
                "panicked" if toks.len() == 8 => ScenarioError::Panicked {
                    message: parse_hex_str(toks[7])?,
                },
                "diverged" if toks.len() == 10 => ScenarioError::Diverged {
                    epoch: toks[7].parse().ok()?,
                    cell: toks[8].parse().ok()?,
                    value: parse_hex_f64(toks[9])?,
                },
                "failed" if toks.len() == 8 => ScenarioError::Failed {
                    detail: parse_hex_str(toks[7])?,
                },
                _ => return None,
            };
            Some((index, Err(SlotError { error, recovery })))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn temp_journal_path(tag: &str) -> std::path::PathBuf {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        std::env::temp_dir().join(format!(
            "cmosaic-journal-{}-{tag}-{}.log",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn sample_ok(index: usize) -> Result<ScenarioOutcome, SlotError> {
        Ok(ScenarioOutcome {
            index,
            metrics: RunMetrics {
                hotspot_time_per_core: 0.1 + index as f64,
                hotspot_time_any: 0.25,
                peak_temperature: Kelvin(351.062_500_000_001),
                chip_energy: 123.456,
                pump_energy: 7.89,
                perf_loss_mean: 0.01,
                perf_loss_max: 0.05,
                mean_flow: index.is_multiple_of(2).then_some(VolumetricFlow(4.2e-7)),
                seconds: 30,
            },
            solver: SolverStats {
                full_factorizations: 1,
                refactorizations: 29,
                in_place_solves: 120,
                ..Default::default()
            },
            recovery: RecoveryRecord {
                attempts: 2,
                backend_demotions: 0,
                dt_halvings: 1,
            },
        })
    }

    fn sample_errors() -> Vec<Result<ScenarioOutcome, SlotError>> {
        let rec = RecoveryRecord {
            attempts: 4,
            backend_demotions: 1,
            dt_halvings: 2,
        };
        vec![
            Err(SlotError {
                error: ScenarioError::Panicked {
                    message: "injected fault: panic at epoch 3".into(),
                },
                recovery: RecoveryRecord {
                    attempts: 1,
                    ..Default::default()
                },
            }),
            Err(SlotError {
                error: ScenarioError::Diverged {
                    epoch: 7,
                    cell: 42,
                    value: f64::NAN,
                },
                recovery: rec,
            }),
            Err(SlotError {
                error: ScenarioError::Failed {
                    detail: "thermal model error: dry-out in cavity 0".into(),
                },
                recovery: rec,
            }),
        ]
    }

    #[test]
    fn slot_lines_round_trip_bit_exactly() {
        let mut slots = vec![sample_ok(0), sample_ok(1)];
        slots.extend(sample_errors());
        for (i, slot) in slots.iter().enumerate() {
            let line = render_slot_line(i, slot);
            if slot.is_ok() {
                assert_eq!(line.split(' ').count(), 28, "{line}");
            }
            let (index, parsed) = parse_slot_line(line.trim_end()).expect("parses");
            assert_eq!(index, i);
            match (slot, &parsed) {
                // NaN breaks PartialEq; compare the bits instead.
                (Err(a), Err(b)) => {
                    assert_eq!(a.recovery, b.recovery);
                    match (&a.error, &b.error) {
                        (
                            ScenarioError::Diverged { value: va, .. },
                            ScenarioError::Diverged { value: vb, .. },
                        ) => assert_eq!(va.to_bits(), vb.to_bits()),
                        (ea, eb) => assert_eq!(ea, eb),
                    }
                }
                _ => assert_eq!(*slot, parsed),
            }
        }
    }

    #[test]
    fn journal_persists_and_reloads_slots() {
        let path = temp_journal_path("reload");
        let fp = 0xdead_beef_u64;
        {
            let journal = StudyJournal::open(&path, fp, 3).unwrap();
            assert_eq!(journal.completed_count(), 0);
            journal.record(1, &sample_ok(1));
            journal.record(0, &sample_errors()[0]);
        }
        let journal = StudyJournal::open(&path, fp, 3).unwrap();
        assert_eq!(journal.completed_count(), 2);
        assert_eq!(journal.completed()[1], Some(sample_ok(1)));
        assert!(matches!(
            &journal.completed()[0],
            Some(Err(e)) if matches!(e.error, ScenarioError::Panicked { .. })
        ));
        assert!(journal.completed()[2].is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn foreign_journals_are_rejected() {
        let path = temp_journal_path("foreign");
        StudyJournal::open(&path, 1, 2).unwrap();
        // Different fingerprint and different scenario count both fail.
        assert!(matches!(
            StudyJournal::open(&path, 2, 2),
            Err(CmosaicError::Journal { .. })
        ));
        assert!(matches!(
            StudyJournal::open(&path, 1, 3),
            Err(CmosaicError::Journal { .. })
        ));
        // v3 and v4 journals of the same study are refused too: v3
        // recovery counts follow the old two-rung ladder, and v4 solver
        // counters the first slot of each pattern group analysing on its
        // own.
        for old in [3, 4] {
            let header =
                format!("cmosaic-study-journal v{old} fingerprint=0000000000000001 scenarios=2\n");
            std::fs::write(&path, header).unwrap();
            assert!(matches!(
                StudyJournal::open(&path, 1, 2),
                Err(CmosaicError::Journal { .. })
            ));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_dropped_not_fatal() {
        let path = temp_journal_path("torn");
        {
            let journal = StudyJournal::open(&path, 9, 4).unwrap();
            journal.record(0, &sample_ok(0));
            journal.record(1, &sample_ok(1));
        }
        // Emulate a kill mid-append: chop the file mid-line, including
        // inside the recovery record (after 4 and after 5 tokens) and
        // just before the newline.
        let text = std::fs::read_to_string(&path).unwrap();
        let last = text[..text.len() - 1].rfind('\n').unwrap() + 1;
        // Cutting at the last line's n-th space leaves n tokens.
        let nth_space = |n: usize| last + text[last..].match_indices(' ').nth(n - 1).unwrap().0;
        for cut in [text.len() - 10, nth_space(4), nth_space(5), text.len() - 1] {
            std::fs::write(&path, &text[..cut]).unwrap();
            {
                let journal = StudyJournal::open(&path, 9, 4).unwrap();
                assert_eq!(journal.completed_count(), 1, "torn slot 1 is re-run");
                assert_eq!(journal.completed()[0], Some(sample_ok(0)));
                // The resumed run appends after the dropped tail...
                journal.record(1, &sample_ok(1));
                journal.record(2, &sample_ok(2));
            }
            // ...and every appended line loads on the next resume.
            let journal = StudyJournal::open(&path, 9, 4).unwrap();
            assert_eq!(journal.completed_count(), 3, "cut at byte {cut}");
            for i in 0..3 {
                assert_eq!(journal.completed()[i], Some(sample_ok(i)));
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fingerprint_tracks_spec_changes() {
        let a = vec![ScenarioSpec::new().seconds(2)];
        let b = vec![ScenarioSpec::new().seconds(3)];
        let two = vec![
            ScenarioSpec::new().seconds(2),
            ScenarioSpec::new().seconds(2),
        ];
        assert_eq!(fingerprint(&a), fingerprint(&a.clone()));
        assert_ne!(fingerprint(&a), fingerprint(&b));
        assert_ne!(fingerprint(&a), fingerprint(&two));
    }
}
