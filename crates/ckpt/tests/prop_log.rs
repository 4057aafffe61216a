//! Property tests of the sealed-record log, the one framing under the
//! mutation WAL and the serve journal: whatever a crash or bit rot does
//! to the file, `load` returns exactly the frames that are wholly and
//! verifiably there or a typed error, `open` repairs only a torn tail,
//! and nothing panics.

use gts_ckpt::{CkptError, KillSwitch, LogFormat, SealedLog};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

const FORMAT: LogFormat = LogFormat::WAL;

fn tmp_file(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir()
        .join(format!("gts-prop-log-{}-{tag}-{n}", std::process::id()))
        .join("sealed.log")
}

/// A binding and a set of frame bodies, empty ones included.
fn arb_log() -> impl Strategy<Value = (Vec<u8>, Vec<Vec<u8>>)> {
    (
        proptest::collection::vec(0u8..=255, 0..16),
        proptest::collection::vec(proptest::collection::vec(0u8..=255, 0..24), 0..6),
    )
}

/// Write the log through the real append path; return its bytes and the
/// end offset of the header followed by that of every frame.
fn build(path: &PathBuf, binding: &[u8], frames: &[Vec<u8>]) -> (Vec<u8>, Vec<usize>) {
    let mut log = SealedLog::create(path, &FORMAT, binding, KillSwitch::never()).unwrap();
    let mut ends = vec![log.sealed_len() as usize];
    for body in frames {
        let appended = log.append(body).unwrap();
        assert_eq!(appended as usize, 4 + body.len() + 8);
        ends.push(log.sealed_len() as usize);
    }
    let bytes = std::fs::read(path).unwrap();
    assert_eq!(bytes.len(), *ends.last().unwrap());
    (bytes, ends)
}

fn bodies(image: &gts_ckpt::LogImage) -> Vec<Vec<u8>> {
    image.frames().map(<[u8]>::to_vec).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Cut a valid file at *every* length: `load` sees exactly the frames
    /// wholly inside the prefix (or a typed header error), never touches
    /// the file, and `open` leaves a whole log that takes appends again.
    #[test]
    fn every_prefix_loads_the_frames_inside_it_and_open_repairs_the_rest(log in arb_log()) {
        let (binding, frames) = log;
        let path = tmp_file("prefix");
        let (bytes, ends) = build(&path, &binding, &frames);
        for cut in 0..=bytes.len() {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            if cut < ends[0] {
                prop_assert!(SealedLog::load(&path, &FORMAT).is_err(), "cut {} in header", cut);
                prop_assert!(SealedLog::open(&path, &FORMAT, KillSwitch::never()).is_err(), "cut {} in header", cut);
                prop_assert_eq!(std::fs::read(&path).unwrap().len(), cut, "untouched");
                continue;
            }
            let whole = ends.iter().rposition(|&e| e <= cut).unwrap();
            let image = SealedLog::load(&path, &FORMAT).unwrap();
            prop_assert_eq!(image.binding(), &binding[..]);
            prop_assert_eq!(bodies(&image), frames[..whole].to_vec(), "cut {}", cut);
            prop_assert_eq!(image.truncated_tail() as usize, cut - ends[whole]);
            prop_assert_eq!(std::fs::read(&path).unwrap().len(), cut, "load is read-only");

            let (mut reopened, seen) = SealedLog::open(&path, &FORMAT, KillSwitch::never()).unwrap();
            prop_assert_eq!(bodies(&seen), frames[..whole].to_vec());
            prop_assert_eq!(reopened.sealed_len() as usize, ends[whole]);
            prop_assert_eq!(std::fs::read(&path).unwrap(), bytes[..ends[whole]].to_vec());
            reopened.append(b"after repair").unwrap();
            let image = SealedLog::load(&path, &FORMAT).unwrap();
            prop_assert_eq!(image.truncated_tail(), 0);
            prop_assert_eq!(image.frames().len(), whole + 1);
            prop_assert_eq!(image.frames().last().unwrap(), &b"after repair"[..]);
        }
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    /// Flip any one byte: the result is a typed error or a strict prefix
    /// of the sealed frames (a flip can only *hide* frames by making one
    /// look torn — it never invents or alters one), a flip inside the
    /// header or inside a frame that has a successor is always an error,
    /// and `open` never rewrites a file it refuses.
    #[test]
    fn one_flipped_byte_is_a_typed_error_or_a_shorter_log(
        log in arb_log(),
        at in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let (binding, frames) = log;
        let path = tmp_file("flip");
        let (mut bytes, ends) = build(&path, &binding, &frames);
        let pos = ((bytes.len() - 1) as f64 * at) as usize;
        bytes[pos] ^= 1 << bit;
        std::fs::write(&path, &bytes).unwrap();
        // The frame the flip landed in (0 = header), and where in it.
        let hit = ends.iter().position(|&e| pos < e).unwrap();
        let in_length_prefix = hit > 0 && pos < ends[hit - 1] + 4;
        match SealedLog::load(&path, &FORMAT) {
            Ok(image) => {
                prop_assert!(hit > 0, "a header flip at {} went unnoticed", pos);
                prop_assert!(
                    hit == frames.len() || in_length_prefix,
                    "a flip at {} inside sealed frame {} of {} went unnoticed",
                    pos, hit - 1, frames.len()
                );
                prop_assert_eq!(image.binding(), &binding[..]);
                prop_assert_eq!(bodies(&image), frames[..hit - 1].to_vec());
                prop_assert!(image.truncated_tail() > 0);
            }
            Err(e) => {
                prop_assert!(
                    matches!(
                        e,
                        CkptError::Corrupt { .. }
                            | CkptError::VersionMismatch { .. }
                            | CkptError::Truncated { .. }
                    ),
                    "unexpected error kind {:?}", e
                );
                prop_assert!(SealedLog::open(&path, &FORMAT, KillSwitch::never()).is_err());
                prop_assert_eq!(std::fs::read(&path).unwrap(), bytes, "refused, so untouched");
            }
        }
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }
}

/// A length prefix of `u32::MAX` claims 4 GiB the file does not have: it
/// reads as a torn tail at that frame, decided from the file's size
/// alone, with nothing allocated for the claimed body.
#[test]
fn a_huge_length_prefix_is_a_torn_tail_not_an_allocation() {
    let path = tmp_file("huge");
    let frames = vec![b"one".to_vec(), b"two".to_vec(), b"three".to_vec()];
    let (mut bytes, ends) = build(&path, b"bind", &frames);
    bytes[ends[1]..ends[1] + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    let image = SealedLog::load(&path, &FORMAT).unwrap();
    assert_eq!(bodies(&image), frames[..1].to_vec());
    assert_eq!(image.truncated_tail() as usize, bytes.len() - ends[1]);
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

/// The two log kinds never read as each other, and a file of the right
/// kind from another schema version is refused by version.
#[test]
fn foreign_kinds_and_versions_are_refused_by_name() {
    let path = tmp_file("kind");
    let (mut bytes, _) = build(&path, b"bind", &[b"frame".to_vec()]);
    assert!(matches!(
        SealedLog::load(&path, &LogFormat::JOURNAL),
        Err(CkptError::Corrupt { .. })
    ));
    bytes[8] = 1; // the WAL's pre-SealedLog version
    std::fs::write(&path, &bytes).unwrap();
    assert_eq!(
        SealedLog::load(&path, &FORMAT).unwrap_err(),
        CkptError::VersionMismatch {
            found: 1,
            expected: 2
        }
    );
    assert!(matches!(
        SealedLog::load(&path.with_extension("absent"), &FORMAT),
        Err(CkptError::Io { op: "read", .. })
    ));
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}
