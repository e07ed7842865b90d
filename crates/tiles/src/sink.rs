//! [`TileSink`] — labeled-tile output, including the spill-to-disk writer.
//!
//! The grid labeler emits each tile's labels exactly once, carrying the
//! [`ComponentId`]s known at emission time; components still open may
//! later merge, and every such event is reported through
//! [`TileSink::merge`] *before* the next tile. Two sinks are provided:
//!
//! * [`CollectTiles`] — buffers everything and reconciles into a
//!   [`LabelImage`] (tests and callers with memory to spare);
//! * [`SpillSink`] — the out-of-core path: tiles are **spilled to disk**
//!   as raw little-endian `u32` rasters or 16-bit PGM (`P5`, maxval
//!   65535), and [`SpillSink::close`] runs the second pass: it patches
//!   the spilled files to final labels one tile at a time — output
//!   memory stays O(tile), matching the labeler's input bound — and
//!   only then writes a sidecar manifest recording the grid geometry and
//!   the merge table.
//!
//! The second pass costs a table lookup per pixel, as in the paper. The
//! merge table is resolved once into a sorted `(absorbed, final)` table
//! (Komura's label-equivalence resolution at tile granularity); each
//! pixel skips it when its id lies outside the absorbed range, reuses
//! the previous answer across runs of equal ids, and binary-searches it
//! otherwise. `close` reads each tile into one reused byte buffer,
//! patches the samples in place and writes the file back only if one
//! changed. [`CollectTiles`] and [`read_spilled_label_image`] resolve
//! with the same table.
//!
//! The sidecar is a line-oriented text format (`manifest.txt`) so it
//! round-trips without a JSON parser. It is written last, through a
//! temporary file and a rename, so a spill directory with a manifest is
//! a finished one. [`read_manifest`] and [`read_spilled_label_image`]
//! reconstruct the exact partition from the spilled tiles plus the merge
//! table.

use std::collections::HashMap;
use std::fs;
use std::io::{BufRead, BufReader, Read};
use std::ops::Range;
use std::path::{Path, PathBuf};

use ccl_core::label::LabelImage;
use ccl_image::io::pgm;
use ccl_stream::ComponentId;

use crate::error::TilesError;

/// Placement of one emitted tile within the grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileMeta {
    /// Tile-row index (0-based, top to bottom).
    pub tile_row: usize,
    /// Tile-column index (0-based, left to right).
    pub tile_col: usize,
    /// Global image row of the tile's first pixel row.
    pub row0: usize,
    /// Global image column of the tile's first pixel column.
    pub col0: usize,
    /// Tile width in pixels.
    pub width: usize,
    /// Tile height in pixels.
    pub height: usize,
}

/// Receives every labeled tile exactly once, in row-major tile order.
/// Tile pixels hold [`ComponentId`]s (0 = background) as known at
/// emission time; [`TileSink::merge`] reports every later unification
/// (always before the tiles of the band that discovered it), so a
/// consumer that union-finds the merge pairs obtains the exact final
/// partition. Each id is absorbed at most once.
pub trait TileSink {
    /// Two previously emitted ids turned out to be one component; `kept`
    /// (the smaller) survives.
    fn merge(&mut self, kept: ComponentId, absorbed: ComponentId);

    /// One labeled tile, row-major within the tile.
    fn tile(&mut self, meta: &TileMeta, gids: &[ComponentId]) -> Result<(), TilesError>;
}

/// Reference in-memory [`TileSink`]: buffers tiles and merge events, then
/// reconciles them into a [`LabelImage`].
#[derive(Debug, Default)]
pub struct CollectTiles {
    tiles: Vec<(TileMeta, Vec<ComponentId>)>,
    merges: Vec<(ComponentId, ComponentId)>,
}

impl TileSink for CollectTiles {
    fn merge(&mut self, kept: ComponentId, absorbed: ComponentId) {
        self.merges.push((kept, absorbed));
    }

    fn tile(&mut self, meta: &TileMeta, gids: &[ComponentId]) -> Result<(), TilesError> {
        debug_assert_eq!(gids.len(), meta.width * meta.height);
        self.tiles.push((*meta, gids.to_vec()));
        Ok(())
    }
}

impl CollectTiles {
    /// Applies the recorded merges and renumbers components canonically
    /// (consecutive `1..=k` by raster order of first pixel). A merge that
    /// does not keep the smaller id, or absorbs an id twice, is a
    /// [`TilesError::Manifest`].
    pub fn into_label_image(self) -> Result<LabelImage, TilesError> {
        let (width, height) = extent(self.tiles.iter().map(|(m, _)| m));
        let mut gids = vec![0u64; width * height];
        for (meta, tile) in &self.tiles {
            blit(&mut gids, width, meta, tile);
        }
        reconcile(width, height, gids, &self.merges)
    }
}

/// Computes the grid extent covered by a set of tile placements.
fn extent<'a>(metas: impl Iterator<Item = &'a TileMeta>) -> (usize, usize) {
    let mut width = 0;
    let mut height = 0;
    for m in metas {
        width = width.max(m.col0 + m.width);
        height = height.max(m.row0 + m.height);
    }
    (width, height)
}

/// Copies a tile's ids into a full-width gid raster.
fn blit(gids: &mut [u64], width: usize, meta: &TileMeta, tile: &[ComponentId]) {
    for r in 0..meta.height {
        let dst = (meta.row0 + r) * width + meta.col0;
        gids[dst..dst + meta.width].copy_from_slice(&tile[r * meta.width..(r + 1) * meta.width]);
    }
}

/// Resolves a merge table once: the final id of every absorbed id, as
/// `(absorbed, final)` sorted by absorbed id. Every merge must keep the
/// smaller id (`kept < absorbed`) and absorb an id at most once — the
/// labeler's contract; a table that breaks it is a
/// [`TilesError::Manifest`]. Sorted, an entry's `kept` id, being
/// smaller, is resolved before the entry itself, so one pass finishes
/// every chain.
fn resolve_merges(
    merges: &[(ComponentId, ComponentId)],
) -> Result<Vec<(ComponentId, ComponentId)>, TilesError> {
    let mut table: Vec<_> = merges
        .iter()
        .map(|&(kept, absorbed)| (absorbed, kept))
        .collect();
    table.sort_unstable();
    for i in 0..table.len() {
        let (absorbed, kept) = table[i];
        if kept >= absorbed {
            return Err(TilesError::Manifest(format!(
                "merge {kept} {absorbed} does not keep the smaller id"
            )));
        }
        if i > 0 && table[i - 1].0 == absorbed {
            return Err(TilesError::Manifest(format!(
                "id {absorbed} is absorbed twice"
            )));
        }
        if let Ok(j) = table[..i].binary_search_by_key(&kept, |&(a, _)| a) {
            table[i].1 = table[j].1;
        }
    }
    Ok(table)
}

/// Per-pixel lookup into a table from [`resolve_merges`]: ids outside
/// the absorbed range pass through, a run of equal ids reuses the last
/// answer, and anything else is one binary search.
struct FinalIds<'a> {
    table: &'a [(ComponentId, ComponentId)],
    min: ComponentId,
    max: ComponentId,
    /// The last id looked up and its final id (0 is never absorbed).
    last: (ComponentId, ComponentId),
}

impl<'a> FinalIds<'a> {
    fn new(table: &'a [(ComponentId, ComponentId)]) -> Self {
        FinalIds {
            table,
            min: table.first().map_or(ComponentId::MAX, |e| e.0),
            max: table.last().map_or(0, |e| e.0),
            last: (0, 0),
        }
    }

    #[inline]
    fn get(&mut self, id: ComponentId) -> ComponentId {
        if id < self.min || id > self.max {
            return id;
        }
        if id != self.last.0 {
            let fin = match self.table.binary_search_by_key(&id, |&(a, _)| a) {
                Ok(i) => self.table[i].1,
                Err(_) => id,
            };
            self.last = (id, fin);
        }
        self.last.1
    }
}

/// Resolves merge chains and canonically renumbers a gid raster into a
/// [`LabelImage`] (consecutive labels by raster order of first pixel).
fn reconcile(
    width: usize,
    height: usize,
    gids: Vec<u64>,
    merges: &[(ComponentId, ComponentId)],
) -> Result<LabelImage, TilesError> {
    let table = resolve_merges(merges)?;
    let mut finals = FinalIds::new(&table);
    let mut remap: HashMap<ComponentId, u32> = HashMap::new();
    let mut next = 0u32;
    let labels: Vec<u32> = gids
        .iter()
        .map(|&g| {
            if g == 0 {
                0
            } else {
                *remap.entry(finals.get(g)).or_insert_with(|| {
                    next += 1;
                    next
                })
            }
        })
        .collect();
    Ok(LabelImage::from_raw(width, height, labels, next))
}

/// On-disk encoding of a spilled tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpillFormat {
    /// Raw little-endian `u32` samples, row-major, no header (geometry
    /// lives in the manifest). Ids up to `u32::MAX`.
    RawU32,
    /// 16-bit binary PGM (`P5`, maxval 65535, big-endian samples) — a
    /// standard format any Netpbm tool can open. Ids up to 65535.
    Pgm16,
}

impl SpillFormat {
    /// Largest representable component id.
    pub fn limit(self) -> u64 {
        match self {
            SpillFormat::RawU32 => u32::MAX as u64,
            SpillFormat::Pgm16 => u16::MAX as u64,
        }
    }

    /// Bytes per stored sample.
    fn sample_bytes(self) -> usize {
        match self {
            SpillFormat::RawU32 => 4,
            SpillFormat::Pgm16 => 2,
        }
    }

    /// Decodes one stored sample (`sample_bytes` long) into an id.
    #[inline]
    fn decode(self, sample: &[u8]) -> ComponentId {
        match self {
            SpillFormat::RawU32 => {
                u32::from_le_bytes([sample[0], sample[1], sample[2], sample[3]]).into()
            }
            SpillFormat::Pgm16 => u16::from_be_bytes([sample[0], sample[1]]).into(),
        }
    }

    /// Encodes an id (within [`limit`](Self::limit)) into one stored
    /// sample.
    #[inline]
    fn encode(self, id: ComponentId, sample: &mut [u8]) {
        match self {
            SpillFormat::RawU32 => sample.copy_from_slice(&(id as u32).to_le_bytes()),
            SpillFormat::Pgm16 => sample.copy_from_slice(&(id as u16).to_be_bytes()),
        }
    }

    fn extension(self) -> &'static str {
        match self {
            SpillFormat::RawU32 => "u32",
            SpillFormat::Pgm16 => "pgm",
        }
    }

    fn name(self) -> &'static str {
        match self {
            SpillFormat::RawU32 => "raw-u32",
            SpillFormat::Pgm16 => "pgm16",
        }
    }

    fn parse(s: &str) -> Result<Self, TilesError> {
        match s {
            "raw-u32" => Ok(SpillFormat::RawU32),
            "pgm16" => Ok(SpillFormat::Pgm16),
            other => Err(TilesError::Manifest(format!("unknown format {other:?}"))),
        }
    }
}

/// Geometry + merge table of a finished spill, as written to / read from
/// the sidecar `manifest.txt`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpillManifest {
    /// Tile encoding.
    pub format: SpillFormat,
    /// Grid width in pixels.
    pub width: usize,
    /// Pixel rows covered by the spilled tiles.
    pub rows: usize,
    /// Placement of every spilled tile, in emission (row-major) order.
    pub tiles: Vec<TileMeta>,
    /// The merge table: every `(kept, absorbed)` id unification, in
    /// emission order; each id is absorbed at most once. After
    /// [`SpillSink::close`] the tile files already carry final ids, but
    /// the table is kept as the sidecar of record so a reader can
    /// reconstruct the partition from *unpatched* spills too (resolution
    /// is idempotent).
    pub merges: Vec<(ComponentId, ComponentId)>,
}

const MANIFEST_NAME: &str = "manifest.txt";
const MANIFEST_MAGIC: &str = "ccl-tiles spill v1";

/// The out-of-core [`TileSink`]: spills each labeled tile to `dir` as it
/// is emitted and patches final labels on [`close`](SpillSink::close).
/// See the module docs for the file layout.
#[derive(Debug)]
pub struct SpillSink {
    dir: PathBuf,
    format: SpillFormat,
    tiles: Vec<TileMeta>,
    merges: Vec<(ComponentId, ComponentId)>,
    /// One file's bytes, reused by every tile write and by `close`.
    buf: Vec<u8>,
}

impl SpillSink {
    /// Creates the spill directory (and parents) and an empty sink. A
    /// manifest left in `dir` by an earlier spill is removed, so the
    /// directory holds a manifest again only once [`close`](Self::close)
    /// succeeds.
    pub fn create(dir: impl Into<PathBuf>, format: SpillFormat) -> Result<Self, TilesError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        match fs::remove_file(dir.join(MANIFEST_NAME)) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e.into()),
            _ => {}
        }
        Ok(SpillSink {
            dir,
            format,
            tiles: Vec::new(),
            merges: Vec::new(),
            buf: Vec::new(),
        })
    }

    /// Directory the tiles spill into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Tiles spilled so far.
    pub fn tiles_spilled(&self) -> usize {
        self.tiles.len()
    }

    /// Finalizes the spill — the second pass. Resolves the merge table
    /// once, then patches every tile in place so the on-disk rasters
    /// carry final component ids: each file is read into one reused
    /// buffer (O(tile) memory), every sample is one table lookup, and a
    /// file is written back only if a sample changed. The sidecar
    /// manifest is written last (temporary file, then rename), so a
    /// close that fails leaves no manifest. Returns the manifest.
    pub fn close(self) -> Result<SpillManifest, TilesError> {
        let table = resolve_merges(&self.merges)?;
        if !table.is_empty() {
            let mut finals = FinalIds::new(&table);
            let mut buf = self.buf;
            for meta in &self.tiles {
                let path = tile_path(&self.dir, self.format, meta);
                let samples = load_tile(&path, self.format, meta, &mut buf)?;
                // final ids are always the *smaller* of a merged pair, so
                // patching can never overflow the format
                if patch_samples(self.format, &mut buf[samples], &mut finals) {
                    fs::write(&path, &buf)?;
                }
            }
        }
        let (width, rows) = extent(self.tiles.iter());
        let manifest = SpillManifest {
            format: self.format,
            width,
            rows,
            tiles: self.tiles,
            merges: self.merges,
        };
        write_manifest(&self.dir, &manifest)?;
        Ok(manifest)
    }
}

impl TileSink for SpillSink {
    fn merge(&mut self, kept: ComponentId, absorbed: ComponentId) {
        self.merges.push((kept, absorbed));
    }

    fn tile(&mut self, meta: &TileMeta, gids: &[ComponentId]) -> Result<(), TilesError> {
        encode_tile(self.format, meta, gids, &mut self.buf)?;
        fs::write(tile_path(&self.dir, self.format, meta), &self.buf)?;
        self.tiles.push(*meta);
        Ok(())
    }
}

/// Path of one spilled tile inside `dir`.
fn tile_path(dir: &Path, format: SpillFormat, meta: &TileMeta) -> PathBuf {
    dir.join(format!(
        "tile_{:05}_{:05}.{}",
        meta.tile_row,
        meta.tile_col,
        format.extension()
    ))
}

/// Encodes one tile of component ids into `out` (cleared first, its
/// allocation reused): the PGM header if the format has one, then one
/// [`SpillFormat::encode`]d sample per id. An id beyond the format's
/// [`limit`](SpillFormat::limit) is a [`TilesError::LabelOverflow`],
/// found in the same pass, before any file is written.
fn encode_tile(
    format: SpillFormat,
    meta: &TileMeta,
    gids: &[ComponentId],
    out: &mut Vec<u8>,
) -> Result<(), TilesError> {
    out.clear();
    if format == SpillFormat::Pgm16 {
        pgm::write_binary16_header(out, meta.width, meta.height);
    }
    let start = out.len();
    out.resize(start + gids.len() * format.sample_bytes(), 0);
    let samples = &mut out[start..];
    let max = match format {
        SpillFormat::RawU32 => encode_samples::<4>(format, gids, samples),
        SpillFormat::Pgm16 => encode_samples::<2>(format, gids, samples),
    };
    let limit = format.limit();
    if max > limit {
        return Err(TilesError::LabelOverflow { gid: max, limit });
    }
    Ok(())
}

/// Encodes `gids` into consecutive `N`-byte samples and returns the
/// largest id. `N` is the format's sample width, fixed per call so the
/// loop compiles to straight-line stores.
#[inline]
fn encode_samples<const N: usize>(
    format: SpillFormat,
    gids: &[ComponentId],
    samples: &mut [u8],
) -> ComponentId {
    debug_assert_eq!(N, format.sample_bytes());
    let mut max = 0;
    for (&gid, sample) in gids.iter().zip(samples.chunks_exact_mut(N)) {
        max = max.max(gid);
        format.encode(gid, sample);
    }
    max
}

/// Maps every absorbed id among a tile's stored samples to its final id,
/// in place. Returns whether any sample changed.
fn patch_samples(format: SpillFormat, samples: &mut [u8], finals: &mut FinalIds) -> bool {
    let mut changed = false;
    for sample in samples.chunks_exact_mut(format.sample_bytes()) {
        let id = format.decode(sample);
        let fin = finals.get(id);
        if fin != id {
            format.encode(fin, sample);
            changed = true;
        }
    }
    changed
}

/// Reads one spilled tile's file into `buf`, reusing its allocation,
/// and checks that it holds the tile's `width × height` samples: a raw
/// tile exactly that many bytes, a PGM tile a matching header. Returns
/// the byte range of the samples within `buf`.
fn load_tile(
    path: &Path,
    format: SpillFormat,
    meta: &TileMeta,
    buf: &mut Vec<u8>,
) -> Result<Range<usize>, TilesError> {
    buf.clear();
    fs::File::open(path)?.read_to_end(buf)?;
    match format {
        SpillFormat::RawU32 => {
            let expected = meta.width * meta.height * 4;
            if buf.len() != expected {
                return Err(TilesError::Manifest(format!(
                    "tile {} has {} bytes, expected {expected}",
                    path.display(),
                    buf.len(),
                )));
            }
            Ok(0..expected)
        }
        SpillFormat::Pgm16 => {
            let (w, h, samples) = pgm::read_binary16_header(buf)?;
            if (w, h) != (meta.width, meta.height) {
                return Err(TilesError::Manifest(format!(
                    "tile {} is {w}x{h}, expected {}x{}",
                    path.display(),
                    meta.width,
                    meta.height
                )));
            }
            Ok(samples)
        }
    }
}

fn write_manifest(dir: &Path, manifest: &SpillManifest) -> Result<(), TilesError> {
    let mut out = String::new();
    out.push_str(MANIFEST_MAGIC);
    out.push('\n');
    out.push_str(&format!("format {}\n", manifest.format.name()));
    out.push_str(&format!("width {}\n", manifest.width));
    out.push_str(&format!("rows {}\n", manifest.rows));
    out.push_str(&format!("tiles {}\n", manifest.tiles.len()));
    for m in &manifest.tiles {
        out.push_str(&format!(
            "tile {} {} {} {} {} {}\n",
            m.tile_row, m.tile_col, m.row0, m.col0, m.width, m.height
        ));
    }
    out.push_str(&format!("merges {}\n", manifest.merges.len()));
    for &(kept, absorbed) in &manifest.merges {
        out.push_str(&format!("merge {kept} {absorbed}\n"));
    }
    // a reader never sees a half-written manifest
    let tmp = dir.join(format!("{MANIFEST_NAME}.tmp"));
    fs::write(&tmp, out)?;
    fs::rename(&tmp, dir.join(MANIFEST_NAME))?;
    Ok(())
}

/// Parses the sidecar manifest of a spill directory.
pub fn read_manifest(dir: impl AsRef<Path>) -> Result<SpillManifest, TilesError> {
    let path = dir.as_ref().join(MANIFEST_NAME);
    let file = fs::File::open(&path)
        .map_err(|e| TilesError::Manifest(format!("{}: {e}", path.display())))?;
    let mut lines = BufReader::new(file).lines();
    let mut next_line = || -> Result<String, TilesError> {
        lines
            .next()
            .transpose()?
            .ok_or_else(|| TilesError::Manifest("unexpected end of manifest".into()))
    };
    if next_line()? != MANIFEST_MAGIC {
        return Err(TilesError::Manifest("bad magic line".into()));
    }
    let field = |line: &str, key: &str| -> Result<String, TilesError> {
        line.strip_prefix(key)
            .and_then(|rest| rest.strip_prefix(' '))
            .map(str::to_string)
            .ok_or_else(|| TilesError::Manifest(format!("expected {key:?}, got {line:?}")))
    };
    let parse_usize = |s: &str| -> Result<usize, TilesError> {
        s.parse()
            .map_err(|_| TilesError::Manifest(format!("invalid number {s:?}")))
    };
    let format = SpillFormat::parse(&field(&next_line()?, "format")?)?;
    let width = parse_usize(&field(&next_line()?, "width")?)?;
    let rows = parse_usize(&field(&next_line()?, "rows")?)?;
    // Counts are only trusted as far as lines back them: the vectors
    // grow as lines parse, so a hostile count ends at end of file.
    let ntiles = parse_usize(&field(&next_line()?, "tiles")?)?;
    let mut tiles = Vec::new();
    for _ in 0..ntiles {
        let line = next_line()?;
        let body = field(&line, "tile")?;
        let nums: Vec<usize> = body
            .split_ascii_whitespace()
            .map(parse_usize)
            .collect::<Result<_, _>>()?;
        if nums.len() != 6 {
            return Err(TilesError::Manifest(format!(
                "malformed tile line {line:?}"
            )));
        }
        tiles.push(TileMeta {
            tile_row: nums[0],
            tile_col: nums[1],
            row0: nums[2],
            col0: nums[3],
            width: nums[4],
            height: nums[5],
        });
    }
    let nmerges = parse_usize(&field(&next_line()?, "merges")?)?;
    let mut merges = Vec::new();
    for _ in 0..nmerges {
        let line = next_line()?;
        let body = field(&line, "merge")?;
        let nums: Vec<u64> = body
            .split_ascii_whitespace()
            .map(|s| {
                s.parse()
                    .map_err(|_| TilesError::Manifest(format!("invalid id {s:?}")))
            })
            .collect::<Result<_, _>>()?;
        if nums.len() != 2 {
            return Err(TilesError::Manifest(format!(
                "malformed merge line {line:?}"
            )));
        }
        merges.push((nums[0], nums[1]));
    }
    // every merge keeps the smaller id (so chains cannot cycle) and
    // absorbs an id at most once
    resolve_merges(&merges)?;
    // Self-consistency: every declared placement must fit the declared
    // extent, and the placements must cover it exactly (checked
    // arithmetic), so a reader allocates only what the tiles declare and
    // blits without bounds surprises.
    let area = width
        .checked_mul(rows)
        .ok_or_else(|| TilesError::Manifest(format!("extent {width}x{rows} overflows")))?;
    let mut covered = 0usize;
    for m in &tiles {
        let fits = m
            .col0
            .checked_add(m.width)
            .is_some_and(|right| right <= width)
            && m.row0
                .checked_add(m.height)
                .is_some_and(|bottom| bottom <= rows);
        if !fits {
            return Err(TilesError::Manifest(format!(
                "tile {}x{} at ({}, {}) exceeds declared extent {width}x{rows}",
                m.width, m.height, m.row0, m.col0
            )));
        }
        // fits the extent, so the product cannot overflow
        covered = covered
            .checked_add(m.width * m.height)
            .ok_or_else(|| TilesError::Manifest("tile areas overflow".into()))?;
    }
    if covered != area {
        return Err(TilesError::Manifest(format!(
            "tiles cover {covered} pixels of the declared {width}x{rows} extent"
        )));
    }
    Ok(SpillManifest {
        format,
        width,
        rows,
        tiles,
        merges,
    })
}

/// A fresh scratch directory under the system temp dir for spills that
/// do not outlive the run (demos, tests): unique per `tag`, process and
/// thread, and removed first if a previous run left it behind.
pub fn temp_spill_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ccl_tiles_{tag}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Reconstructs the exact labeling from a spill directory: reads the
/// manifest, loads every tile, applies the merge table (a no-op on
/// patched spills) and canonically renumbers into a [`LabelImage`].
/// The *reader* holds the whole image — the spill itself was produced in
/// O(tile) memory.
pub fn read_spilled_label_image(dir: impl AsRef<Path>) -> Result<LabelImage, TilesError> {
    let dir = dir.as_ref();
    let manifest = read_manifest(dir)?;
    // No raster before the files back the manifest's numbers: each tile
    // file must hold at least its samples' bytes.
    let format = manifest.format;
    for meta in &manifest.tiles {
        let path = tile_path(dir, format, meta);
        let need = (meta.width as u64)
            .saturating_mul(meta.height as u64)
            .saturating_mul(format.sample_bytes() as u64);
        let have = fs::metadata(&path)?.len();
        if have < need {
            return Err(TilesError::Manifest(format!(
                "tile {} has {have} bytes, its {}x{} samples need {need}",
                path.display(),
                meta.width,
                meta.height
            )));
        }
    }
    let width = manifest.width;
    let mut gids = vec![0u64; width * manifest.rows];
    let mut buf = Vec::new();
    for meta in &manifest.tiles {
        let samples = load_tile(&tile_path(dir, format, meta), format, meta, &mut buf)?;
        let mut samples = buf[samples].chunks_exact(format.sample_bytes());
        for r in 0..meta.height {
            let dst = (meta.row0 + r) * width + meta.col0;
            for (g, sample) in gids[dst..dst + meta.width].iter_mut().zip(&mut samples) {
                *g = format.decode(sample);
            }
        }
    }
    reconcile(width, manifest.rows, gids, &manifest.merges)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        temp_spill_dir(tag)
    }

    fn meta(tr: usize, tc: usize, r0: usize, c0: usize, w: usize, h: usize) -> TileMeta {
        TileMeta {
            tile_row: tr,
            tile_col: tc,
            row0: r0,
            col0: c0,
            width: w,
            height: h,
        }
    }

    #[test]
    fn collect_tiles_reconciles_merges() {
        // tile row 0, then the merges tile row 0 left open, then tile row 1
        let collect =
            |row0: &[(TileMeta, &[u64])], merges: &[(u64, u64)], row1: &[(TileMeta, &[u64])]| {
                let mut sink = CollectTiles::default();
                for (m, gids) in row0 {
                    sink.tile(m, gids).unwrap();
                }
                for &(kept, absorbed) in merges {
                    sink.merge(kept, absorbed);
                }
                for (m, gids) in row1 {
                    sink.tile(m, gids).unwrap();
                }
                sink.into_label_image().unwrap()
            };

        // a 2x2 grid: the merge joins the two tile columns
        let li = collect(
            &[
                (meta(0, 0, 0, 0, 2, 1), &[1, 0]),
                (meta(0, 1, 0, 2, 1, 1), &[2]),
            ],
            &[(1, 2)],
            &[
                (meta(1, 0, 1, 0, 2, 1), &[1, 1]),
                (meta(1, 1, 1, 2, 1, 1), &[2]),
            ],
        );
        assert_eq!(li.num_components(), 1);
        assert_eq!(li.as_slice(), &[1, 0, 1, 1, 1, 1]);

        // one tile column with a chained merge: 3 -> 2 -> 1
        let li = collect(
            &[(meta(0, 0, 0, 0, 5, 1), &[1, 0, 2, 0, 3])],
            &[(2, 3), (1, 2)],
            &[(meta(1, 0, 1, 0, 5, 1), &[0, 1, 0, 0, 0])],
        );
        assert_eq!(li.num_components(), 1);
        assert_eq!(li.as_slice(), &[1, 0, 1, 0, 1, 0, 1, 0, 0, 0]);

        // nothing emitted at all
        let li = collect(&[], &[], &[]);
        assert_eq!(li.num_components(), 0);
        assert_eq!((li.width(), li.height()), (0, 0));

        // an id absorbed twice breaks the sink contract: an error, not a
        // wrong partition
        let mut sink = CollectTiles::default();
        sink.tile(&meta(0, 0, 0, 0, 3, 1), &[1, 2, 3]).unwrap();
        sink.merge(1, 3);
        sink.merge(2, 3);
        let err = sink.into_label_image().unwrap_err();
        assert!(matches!(err, TilesError::Manifest(_)), "{err}");
    }

    /// The ids stored in a spilled raw-`u32` tile file.
    fn raw_ids(dir: &Path, meta: &TileMeta) -> Vec<u64> {
        fs::read(tile_path(dir, SpillFormat::RawU32, meta))
            .unwrap()
            .chunks_exact(4)
            .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]).into())
            .collect()
    }

    #[test]
    fn spill_round_trip_raw_u32() {
        let dir = temp_dir("raw");
        let mut sink = SpillSink::create(&dir, SpillFormat::RawU32).unwrap();
        sink.tile(&meta(0, 0, 0, 0, 2, 2), &[1, 0, 1, 2]).unwrap();
        sink.tile(&meta(0, 1, 0, 2, 2, 2), &[0, 3, 2, 0]).unwrap();
        sink.merge(2, 3);
        sink.tile(&meta(1, 0, 2, 0, 2, 1), &[0, 2]).unwrap();
        sink.tile(&meta(1, 1, 2, 2, 2, 1), &[2, 0]).unwrap();
        assert_eq!(sink.tiles_spilled(), 4);
        let manifest = sink.close().unwrap();
        assert_eq!(manifest.width, 4);
        assert_eq!(manifest.rows, 3);
        assert_eq!(manifest.merges, vec![(2, 3)]);

        // files were patched: absorbed id 3 no longer appears
        let back = read_manifest(&dir).unwrap();
        assert_eq!(back, manifest);
        assert_eq!(raw_ids(&dir, &back.tiles[1]), vec![0, 2, 2, 0]);

        let li = read_spilled_label_image(&dir).unwrap();
        assert_eq!(li.num_components(), 2);
        assert_eq!(li.as_slice(), &[1, 0, 0, 2, 1, 2, 2, 0, 0, 2, 2, 0]);
        fs::remove_dir_all(&dir).unwrap();

        // a chained merge among the largest ids the format holds, patched
        // in place as little-endian samples
        let dir = temp_dir("raw_max");
        let top = u64::from(u32::MAX);
        let mut sink = SpillSink::create(&dir, SpillFormat::RawU32).unwrap();
        let tile = meta(0, 0, 0, 0, 4, 1);
        sink.tile(&tile, &[top - 2, 0, top - 1, top]).unwrap();
        sink.merge(top - 1, top);
        sink.merge(top - 2, top - 1);
        sink.close().unwrap();
        assert_eq!(raw_ids(&dir, &tile), vec![top - 2, 0, top - 2, top - 2]);
        let li = read_spilled_label_image(&dir).unwrap();
        assert_eq!(li.as_slice(), &[1, 0, 1, 1]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_close_leaves_no_manifest() {
        let dir = temp_dir("failed_close");
        let tiles = [meta(0, 0, 0, 0, 2, 1), meta(0, 1, 0, 2, 2, 1)];
        // a finished spill, then a second one into the same directory
        // whose close cannot patch: the old manifest must not survive
        for run in 0..2 {
            let mut sink = SpillSink::create(&dir, SpillFormat::RawU32).unwrap();
            sink.tile(&tiles[0], &[1, 0]).unwrap();
            sink.tile(&tiles[1], &[0, 2]).unwrap();
            sink.merge(1, 2);
            if run == 0 {
                sink.close().unwrap();
                assert!(dir.join(MANIFEST_NAME).exists());
            } else {
                fs::remove_file(tile_path(&dir, SpillFormat::RawU32, &tiles[1])).unwrap();
                assert!(sink.close().is_err());
                assert!(!dir.join(MANIFEST_NAME).exists());
                assert!(read_spilled_label_image(&dir).is_err());
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn spill_round_trip_pgm16() {
        let dir = temp_dir("pgm");
        let mut sink = SpillSink::create(&dir, SpillFormat::Pgm16).unwrap();
        sink.tile(&meta(0, 0, 0, 0, 3, 1), &[1, 0, 2]).unwrap();
        sink.merge(1, 2);
        let manifest = sink.close().unwrap();
        assert_eq!(manifest.format, SpillFormat::Pgm16);
        // the spilled tile is a well-formed 16-bit PGM
        let bytes = fs::read(tile_path(&dir, SpillFormat::Pgm16, &manifest.tiles[0])).unwrap();
        let (w, h, samples) = pgm::read_binary16(&bytes).unwrap();
        assert_eq!((w, h), (3, 1));
        assert_eq!(samples, vec![1, 0, 1]); // patched
        let li = read_spilled_label_image(&dir).unwrap();
        assert_eq!(li.num_components(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pgm16_overflow_is_reported() {
        let dir = temp_dir("overflow");
        let mut sink = SpillSink::create(&dir, SpillFormat::Pgm16).unwrap();
        let tile = meta(0, 0, 0, 0, 2, 1);
        let err = sink.tile(&tile, &[1, 70_000]).unwrap_err();
        assert!(matches!(err, TilesError::LabelOverflow { gid: 70_000, .. }));
        // the check runs before the file is written
        assert!(!tile_path(&dir, SpillFormat::Pgm16, &tile).exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unpatched_spill_still_reconstructs() {
        // write tiles + manifest by hand without patching: the reader's
        // merge resolution alone must recover the partition
        let dir = temp_dir("unpatched");
        fs::create_dir_all(&dir).unwrap();
        let tiles = vec![meta(0, 0, 0, 0, 2, 1), meta(0, 1, 0, 2, 2, 1)];
        let manifest = SpillManifest {
            format: SpillFormat::RawU32,
            width: 4,
            rows: 1,
            tiles: tiles.clone(),
            merges: vec![(1, 2)],
        };
        write_manifest(&dir, &manifest).unwrap();
        let mut buf = Vec::new();
        for (meta, gids) in tiles.iter().zip([[1, 1], [2, 2]]) {
            encode_tile(SpillFormat::RawU32, meta, &gids, &mut buf).unwrap();
            fs::write(tile_path(&dir, SpillFormat::RawU32, meta), &buf).unwrap();
        }
        let li = read_spilled_label_image(&dir).unwrap();
        assert_eq!(li.num_components(), 1);
        assert_eq!(li.as_slice(), &[1, 1, 1, 1]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_rejects_garbage() {
        let dir = temp_dir("garbage");
        fs::create_dir_all(&dir).unwrap();
        assert!(read_manifest(&dir).is_err()); // missing file
        fs::write(dir.join(MANIFEST_NAME), "not a manifest\n").unwrap();
        assert!(read_manifest(&dir).is_err());
        // a non-number, counts no line backs (they must not be allocated
        // up front), a merge that does not keep the smaller id (a chain
        // that could cycle), and an id absorbed twice (union-finding the
        // pairs of `[1, 2, 3]` gives one component; following each
        // absorbed id to one kept id would give two)
        let head = format!("{MANIFEST_MAGIC}\nformat raw-u32\nwidth 1\nrows 1\n");
        for body in [
            format!("{MANIFEST_MAGIC}\nformat raw-u32\nwidth x\n"),
            format!("{head}tiles 1000000000000\ntile 0 0 0 0 1 1\n"),
            format!("{head}tiles 1\ntile 0 0 0 0 1 1\nmerges 1000000000000\nmerge 1 2\n"),
            format!("{head}tiles 1\ntile 0 0 0 0 1 1\nmerges 2\nmerge 1 2\nmerge 2 1\n"),
            format!(
                "{MANIFEST_MAGIC}\nformat raw-u32\nwidth 3\nrows 1\ntiles 1\n\
                 tile 0 0 0 0 3 1\nmerges 2\nmerge 1 3\nmerge 2 3\n"
            ),
        ] {
            fs::write(dir.join(MANIFEST_NAME), body).unwrap();
            let err = read_manifest(&dir).unwrap_err();
            assert!(matches!(err, TilesError::Manifest(_)), "{err}");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_rejects_tiles_exceeding_declared_extent() {
        // a 4-wide tile in a declared 2x1 grid must be Err, not a panic
        // in the reader's blit
        // in the reader's blit; so must an extent the tiles do not cover
        // (a 10^12-pixel raster behind one 1x1 tile)
        let dir = temp_dir("oob");
        fs::create_dir_all(&dir).unwrap();
        for (extent, tile) in [("2\nrows 1", "4 1"), ("1000000\nrows 1000000", "1 1")] {
            fs::write(
                dir.join(MANIFEST_NAME),
                format!(
                    "{MANIFEST_MAGIC}\nformat raw-u32\nwidth {extent}\ntiles 1\n\
                     tile 0 0 0 0 {tile}\nmerges 0\n"
                ),
            )
            .unwrap();
            let err = read_manifest(&dir).unwrap_err();
            assert!(matches!(err, TilesError::Manifest(_)), "{err}");
            assert!(read_spilled_label_image(&dir).is_err());
        }
        // a consistent manifest whose tile file is too short to back it:
        // refused before the 10^12-pixel raster is allocated
        fs::write(
            dir.join(MANIFEST_NAME),
            format!(
                "{MANIFEST_MAGIC}\nformat raw-u32\nwidth 1000000\nrows 1000000\ntiles 1\n\
                 tile 0 0 0 0 1000000 1000000\nmerges 0\n"
            ),
        )
        .unwrap();
        let tile = read_manifest(&dir).unwrap().tiles[0];
        fs::write(tile_path(&dir, SpillFormat::RawU32, &tile), [0u8; 4]).unwrap();
        let err = read_spilled_label_image(&dir).unwrap_err();
        assert!(matches!(err, TilesError::Manifest(_)), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }
}
