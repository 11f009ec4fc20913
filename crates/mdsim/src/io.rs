//! Particle system input/output: a plain XYZ-with-charge text format (the
//! paper's application "reads the particle system from an input file"), plus
//! full-state text snapshots for checkpoint/restart (no extra dependencies;
//! `f64` values round-trip exactly through Rust's shortest-float formatting).

use std::io::{BufRead, Write};
use std::path::Path;

use particles::record::{self, SealError};
use particles::{ParticleSet, SystemBox, Vec3};

/// Why loading a [`Snapshot`] failed. Snapshots carry a sealed length +
/// checksum footer, so a truncated or bit-flipped file is detected and
/// reported as a typed error instead of silently propagating garbage state
/// into a restart.
#[derive(Debug)]
pub enum SnapshotError {
    /// The underlying file could not be read.
    Io(std::io::Error),
    /// The file ends before the expected content (missing lines or a missing
    /// footer), the footer's recorded length disagrees with the content, or
    /// the last line is not a sealed footer at all (a snapshot written
    /// before the footer was a sealed line ends in `checksum <len> <hex>`).
    Truncated,
    /// The footer checksum does not match the content — the file was
    /// corrupted in place (bit flips, partial overwrite).
    ChecksumMismatch {
        /// Checksum recorded in the footer.
        expected: u64,
        /// Checksum recomputed from the content.
        actual: u64,
    },
    /// The content is structurally invalid (bad header, short particle line,
    /// unparsable number).
    Malformed(&'static str),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot io error: {e}"),
            SnapshotError::Truncated => write!(f, "snapshot truncated (content or footer missing)"),
            SnapshotError::ChecksumMismatch { expected, actual } => write!(
                f,
                "snapshot checksum mismatch (footer {expected:016x}, content {actual:016x})"
            ),
            SnapshotError::Malformed(msg) => write!(f, "malformed snapshot: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// Seed of the snapshot checksum ("SHNPSHOT" in ASCII): the footer is
/// sealed under `record::fold(SNAPSHOT_SEED, content)`.
const SNAPSHOT_SEED: u64 = 0x5348_4e50_5348_4f54;

/// A complete, self-describing simulation snapshot (one rank's share or a
/// gathered world state).
#[derive(Clone, Debug, PartialEq)]
pub struct Snapshot {
    /// The system box.
    pub bbox: SystemBox,
    /// Completed time steps.
    pub step: usize,
    /// Positions.
    pub pos: Vec<Vec3>,
    /// Charges.
    pub charge: Vec<f64>,
    /// Global particle ids.
    pub id: Vec<u64>,
    /// Velocities.
    pub vel: Vec<Vec3>,
    /// Accelerations.
    pub accel: Vec<Vec3>,
}

impl Default for Snapshot {
    fn default() -> Self {
        Snapshot {
            bbox: SystemBox::cubic(1.0),
            step: 0,
            pos: Vec::new(),
            charge: Vec::new(),
            id: Vec::new(),
            vel: Vec::new(),
            accel: Vec::new(),
        }
    }
}

impl Snapshot {
    /// Number of particles in the snapshot.
    pub fn len(&self) -> usize {
        self.pos.len()
    }

    /// Is the snapshot empty?
    pub fn is_empty(&self) -> bool {
        self.pos.is_empty()
    }

    /// Write the snapshot to a text file and sync it to disk:
    ///
    /// ```text
    /// snapshot <n> step <step>
    /// box <lx> <ly> <lz> periodic <px> <py> <pz>
    /// <id> <q> <x> <y> <z> <vx> <vy> <vz> <ax> <ay> <az>
    /// ...
    /// checksum <content-bytes> % <sum>
    /// ```
    ///
    /// The numbers are Rust's shortest round-trip `f64` text, so a restart
    /// is bit-exact (`-0.0` included). The final line is a footer over
    /// everything before it, sealed by [`particles::record`] under the
    /// chain `fold(SNAPSHOT_SEED, content)`; a restart refuses to load a
    /// file whose footer is missing or disagrees (see [`Snapshot::load`] and
    /// [`SnapshotError`]). The file is synced before this returns, so a
    /// supervisor that records "checkpoint written" afterwards can rely on
    /// it surviving a `kill -9` of the process.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        use std::fmt::Write as _;
        let mut content = String::new();
        let _ = writeln!(content, "snapshot {} step {}", self.len(), self.step);
        let _ = writeln!(
            content,
            "box {} {} {} periodic {} {} {}",
            self.bbox.lengths.x(),
            self.bbox.lengths.y(),
            self.bbox.lengths.z(),
            u8::from(self.bbox.periodic[0]),
            u8::from(self.bbox.periodic[1]),
            u8::from(self.bbox.periodic[2]),
        );
        for i in 0..self.len() {
            let (p, v, a) = (self.pos[i], self.vel[i], self.accel[i]);
            let _ = writeln!(
                content,
                "{} {} {} {} {} {} {} {} {} {} {}",
                self.id[i],
                self.charge[i],
                p.x(),
                p.y(),
                p.z(),
                v.x(),
                v.y(),
                v.z(),
                a.x(),
                a.y(),
                a.z(),
            );
        }
        let chain = record::fold(SNAPSHOT_SEED, content.as_bytes());
        let (footer, _) = record::seal(chain, &format!("checksum {}", content.len()));
        content.push_str(&footer);
        record::write_durable(&mut std::fs::File::create(path)?, content.as_bytes())
    }

    /// Read a snapshot written by [`Snapshot::save`], verifying the length +
    /// checksum footer first. A file that was truncated, bit-flipped or
    /// partially overwritten is rejected with the corresponding
    /// [`SnapshotError`] — garbage state never reaches the restart.
    pub fn load(path: &Path) -> Result<Snapshot, SnapshotError> {
        let raw = std::fs::read(path)?;
        // Footer: the last line, which must end the file with its `\n`.
        let body = raw.strip_suffix(b"\n").ok_or(SnapshotError::Truncated)?;
        let footer_start =
            body.iter().rposition(|&b| b == b'\n').ok_or(SnapshotError::Truncated)? + 1;
        let (content, footer) = raw.split_at(footer_start);
        let sealed = match record::unseal(footer, record::fold(SNAPSHOT_SEED, content)) {
            Ok(sealed) => sealed,
            Err(SealError::Torn) => return Err(SnapshotError::Truncated),
            Err(SealError::Mismatch { sealed, computed }) => {
                return Err(SnapshotError::ChecksumMismatch { expected: sealed, actual: computed })
            }
        };
        if sealed.body != format!("checksum {}", content.len()) {
            return Err(SnapshotError::Truncated);
        }
        let content =
            std::str::from_utf8(content).map_err(|_| SnapshotError::Malformed("not UTF-8"))?;

        let bad = SnapshotError::Malformed;
        let mut lines = content.lines();
        let head = lines.next().ok_or(bad("missing header"))?;
        let tok: Vec<&str> = head.split_whitespace().collect();
        if tok.len() != 4 || tok[0] != "snapshot" || tok[2] != "step" {
            return Err(bad("malformed snapshot header"));
        }
        let n: usize = tok[1].parse().map_err(|_| bad("bad count"))?;
        let step: usize = tok[3].parse().map_err(|_| bad("bad step"))?;
        let boxline = lines.next().ok_or(bad("missing box line"))?;
        let tok: Vec<&str> = boxline.split_whitespace().collect();
        if tok.len() != 8 || tok[0] != "box" || tok[4] != "periodic" {
            return Err(bad("malformed box line"));
        }
        let pf = |s: &str| s.parse::<f64>().map_err(|_| bad("bad number"));
        let bbox = SystemBox::new(
            Vec3::ZERO,
            Vec3::new(pf(tok[1])?, pf(tok[2])?, pf(tok[3])?),
            [tok[5] == "1", tok[6] == "1", tok[7] == "1"],
        );
        let mut snap = Snapshot {
            bbox,
            step,
            pos: Vec::with_capacity(n),
            charge: Vec::with_capacity(n),
            id: Vec::with_capacity(n),
            vel: Vec::with_capacity(n),
            accel: Vec::with_capacity(n),
        };
        for _ in 0..n {
            let line = lines.next().ok_or(SnapshotError::Truncated)?;
            let tok: Vec<&str> = line.split_whitespace().collect();
            if tok.len() != 11 {
                return Err(bad("malformed snapshot particle line"));
            }
            snap.id.push(tok[0].parse().map_err(|_| bad("bad id"))?);
            snap.charge.push(pf(tok[1])?);
            snap.pos.push(Vec3::new(pf(tok[2])?, pf(tok[3])?, pf(tok[4])?));
            snap.vel.push(Vec3::new(pf(tok[5])?, pf(tok[6])?, pf(tok[7])?));
            snap.accel.push(Vec3::new(pf(tok[8])?, pf(tok[9])?, pf(tok[10])?));
        }
        Ok(snap)
    }
}

/// Write a particle set in the extended-XYZ-like text format:
///
/// ```text
/// <n>
/// box <lx> <ly> <lz> periodic <px> <py> <pz>
/// <id> <charge> <x> <y> <z>
/// ...
/// ```
pub fn write_xyzq<W: Write>(mut w: W, bbox: &SystemBox, set: &ParticleSet) -> std::io::Result<()> {
    writeln!(w, "{}", set.len())?;
    writeln!(
        w,
        "box {} {} {} periodic {} {} {}",
        bbox.lengths.x(),
        bbox.lengths.y(),
        bbox.lengths.z(),
        u8::from(bbox.periodic[0]),
        u8::from(bbox.periodic[1]),
        u8::from(bbox.periodic[2]),
    )?;
    for i in 0..set.len() {
        writeln!(
            w,
            "{} {} {} {} {}",
            set.id()[i],
            set.charge()[i],
            set.pos()[i].x(),
            set.pos()[i].y(),
            set.pos()[i].z()
        )?;
    }
    Ok(())
}

/// Read a particle set written by [`write_xyzq`]. Returns the box and set.
pub fn read_xyzq<R: BufRead>(r: R) -> std::io::Result<(SystemBox, ParticleSet)> {
    let bad = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string());
    let mut lines = r.lines();
    let n: usize = lines
        .next()
        .ok_or_else(|| bad("missing count line"))??
        .trim()
        .parse()
        .map_err(|_| bad("bad particle count"))?;
    let header = lines.next().ok_or_else(|| bad("missing box line"))??;
    let tok: Vec<&str> = header.split_whitespace().collect();
    if tok.len() != 8 || tok[0] != "box" || tok[4] != "periodic" {
        return Err(bad("malformed box line"));
    }
    let parse_f = |s: &str| s.parse::<f64>().map_err(|_| bad("bad box number"));
    let lengths = Vec3::new(parse_f(tok[1])?, parse_f(tok[2])?, parse_f(tok[3])?);
    let mut periodic = [false; 3];
    for d in 0..3 {
        periodic[d] = tok[5 + d] == "1";
    }
    let bbox = SystemBox::new(Vec3::ZERO, lengths, periodic);
    let mut set = ParticleSet::with_capacity(n);
    for _ in 0..n {
        let line = lines.next().ok_or_else(|| bad("truncated particle data"))??;
        let tok: Vec<&str> = line.split_whitespace().collect();
        if tok.len() != 5 {
            return Err(bad("malformed particle line"));
        }
        let id: u64 = tok[0].parse().map_err(|_| bad("bad id"))?;
        let q = parse_f(tok[1])?;
        set.push(Vec3::new(parse_f(tok[2])?, parse_f(tok[3])?, parse_f(tok[4])?), q, id);
    }
    Ok((bbox, set))
}

#[cfg(test)]
mod tests {
    use super::*;
    use particles::IonicCrystal;

    fn sample_set() -> (SystemBox, ParticleSet) {
        let c = IonicCrystal::cubic(3, 1.5, 0.2, 4);
        let bbox = c.system_box();
        let mut set = ParticleSet::default();
        for i in 0..c.n() as u64 {
            let (x, q) = c.particle(i);
            set.push(x, q, i);
        }
        (bbox, set)
    }

    #[test]
    fn xyzq_roundtrip() {
        let (bbox, set) = sample_set();
        let mut buf = Vec::new();
        write_xyzq(&mut buf, &bbox, &set).unwrap();
        let (bbox2, set2) = read_xyzq(std::io::Cursor::new(&buf)).unwrap();
        assert_eq!(bbox2.lengths, bbox.lengths);
        assert_eq!(bbox2.periodic, bbox.periodic);
        assert_eq!(set2.len(), set.len());
        for i in 0..set.len() {
            assert_eq!(set2.id()[i], set.id()[i]);
            assert_eq!(set2.charge()[i], set.charge()[i]);
            assert!((set2.pos()[i] - set.pos()[i]).norm() < 1e-12);
        }
    }

    #[test]
    fn xyzq_rejects_malformed_input() {
        assert!(read_xyzq(std::io::Cursor::new(b"not a number\n".as_slice())).is_err());
        assert!(read_xyzq(std::io::Cursor::new(b"2\nnobox 1 2 3\n".as_slice())).is_err());
        assert!(
            read_xyzq(std::io::Cursor::new(
                b"2\nbox 1 1 1 periodic 1 1 1\n0 1.0 0.1 0.1 0.1\n".as_slice()
            ))
            .is_err(),
            "truncated particle data must be rejected"
        );
        assert!(
            read_xyzq(std::io::Cursor::new(
                b"1\nbox 1 1 1 periodic 1 1 1\n0 1.0 0.1 0.1\n".as_slice()
            ))
            .is_err(),
            "short particle line must be rejected"
        );
    }

    #[test]
    fn snapshot_roundtrip_via_file() {
        let (bbox, set) = sample_set();
        let n = set.len();
        let snap = Snapshot {
            bbox,
            step: 42,
            pos: set.pos().to_vec(),
            charge: set.charge().to_vec(),
            id: set.id().to_vec(),
            vel: vec![Vec3::new(0.1, -0.2, 0.3); n],
            accel: vec![Vec3::ZERO; n],
        };
        let dir = std::env::temp_dir().join("cpr_snapshot_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.json");
        snap.save(&path).unwrap();
        let back = Snapshot::load(&path).unwrap();
        assert_eq!(back, snap);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn snapshot_load_rejects_truncated_and_bit_flipped_files() {
        let (bbox, set) = sample_set();
        let n = set.len();
        let snap = Snapshot {
            bbox,
            step: 7,
            pos: set.pos().to_vec(),
            charge: set.charge().to_vec(),
            id: set.id().to_vec(),
            vel: vec![Vec3::new(0.25, -0.5, 0.125); n],
            accel: vec![Vec3::new(-1.0, 2.0, -3.0); n],
        };
        let dir = std::env::temp_dir().join("cpr_snapshot_corruption_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.txt");
        snap.save(&path).unwrap();
        let pristine = std::fs::read(&path).unwrap();
        assert!(Snapshot::load(&path).is_ok(), "pristine file must load");

        // Truncation at various points: a typed error, never garbage. (The
        // sole cut that may load is one that only trims the trailing
        // newline — the data must then still be bit-for-bit intact.)
        for cut in [0, 1, pristine.len() / 3, pristine.len() / 2, pristine.len() - 1] {
            std::fs::write(&path, &pristine[..cut]).unwrap();
            match Snapshot::load(&path) {
                Err(
                    SnapshotError::Truncated
                    | SnapshotError::ChecksumMismatch { .. }
                    | SnapshotError::Malformed(_),
                ) => {}
                Err(e) => panic!("cut at {cut}: unexpected error {e}"),
                Ok(loaded) => {
                    assert_eq!(loaded, snap, "cut at {cut} loaded altered state")
                }
            }
        }

        // Deterministic bit flips all over the file: every one must surface
        // as ChecksumMismatch (content flips) or a typed footer error — and
        // never load successfully, and never panic.
        let mut seed = 0xb17f_11b5u64;
        for trial in 0..200 {
            seed = particles::systems::splitmix64(seed ^ trial);
            let byte = (seed as usize) % pristine.len();
            let bit = (seed >> 32) % 8;
            let mut corrupted = pristine.clone();
            corrupted[byte] ^= 1 << bit;
            if corrupted == pristine {
                continue;
            }
            std::fs::write(&path, &corrupted).unwrap();
            match Snapshot::load(&path) {
                Err(_) => {}
                // A flip confined to insignificant bytes (e.g. the trailing
                // newline turning into other whitespace) may still load —
                // but then the data must be bit-for-bit intact. Garbage
                // state must never come back.
                Ok(loaded) => assert_eq!(
                    loaded, snap,
                    "bit flip at byte {byte} bit {bit} loaded altered state"
                ),
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn snapshot_with_an_unsealed_footer_is_rejected() {
        let (bbox, set) = sample_set();
        let n = set.len();
        let snap = Snapshot {
            bbox,
            step: 3,
            pos: set.pos().to_vec(),
            charge: set.charge().to_vec(),
            id: set.id().to_vec(),
            vel: vec![Vec3::new(-0.0, 0.5, 1e-300); n],
            accel: vec![Vec3::ZERO; n],
        };
        let dir = std::env::temp_dir().join("cpr_snapshot_old_footer_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.txt");
        snap.save(&path).unwrap();
        let back = Snapshot::load(&path).unwrap();
        assert_eq!(back, snap);
        assert!(back.vel[0].x().is_sign_negative(), "-0.0 survives the restart");
        // The same content under the footer of the unsealed format,
        // `checksum <len> <hex>` with its valid fold: typed error, not parsed.
        let text = std::fs::read_to_string(&path).unwrap();
        let content = &text[..text.trim_end().rfind('\n').unwrap() + 1];
        let sum = record::fold(SNAPSHOT_SEED, content.as_bytes());
        std::fs::write(&path, format!("{content}checksum {} {sum:016x}\n", content.len())).unwrap();
        assert!(matches!(Snapshot::load(&path), Err(SnapshotError::Truncated)));
        std::fs::remove_file(&path).ok();
    }
}
