//! Backend **H** — the disk-resident paged interval store.
//!
//! `PagedStore` keeps the same logical encoding as Systems E/F (the
//! containment intervals of Zhang et al. \[26\]) but stores it in a page
//! file served through a bounded [`BufferPool`], so the resident
//! footprint is the pool's frame budget plus the catalog — not the
//! document. Bulkload runs *through* the pool (exercising eviction and
//! the WAL's log-before-data discipline), and a finished file re-opens
//! cold: [`PagedStore::open`] reads the header and catalog pages only,
//! no XML parse.
//!
//! Navigation pins pages per record touch. Node records are fixed-width
//! ([`NODES_PER_PAGE`] per page), so a node id maps to a `(page, slot)`
//! pair by arithmetic; text and attribute lookups binary-search the
//! catalog's sparse first-id-per-page indexes. The borrowed-`&str`
//! trait methods (`text`, `attributes_iter`) cannot hand out references
//! into evictable frames, so they fall back to lazily-built
//! stable-address caches — every hot path (`string_value_into`,
//! `serialize_node_to`, `attribute`, `attributes`,
//! [`XmlStore::is_text_node`]) is overridden with owned page reads and
//! never touches them.

use std::collections::HashMap;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use xmark_xml::Document;

use crate::axis::{AttrIter, ChildIter, ChildrenNamed, DescendantsNamed};
use crate::index::IndexManager;
use crate::loader::{parent_array, subtree_ends, NONE};
use crate::traits::{Node, PlannerCaps, SystemId, XmlStore};

use super::buffer::{BufferPool, PageGuard, PoolStats};
use super::file::FileManager;
use super::layout::{le_u16, le_u32, Catalog, Header, NodeRec, NODES_PER_PAGE, TEXT_CHUNK};
use super::page::{PageId, PageKind};
use super::wal::{LogManager, LogRecord};

/// Text-node marker in the tag-code column (same sentinel as E/F).
const TEXT_TAG: u16 = u16::MAX;

/// One lazily-filled slot per node of a borrow-compat cache.
type LazySlots<T> = OnceLock<Vec<OnceLock<T>>>;
/// Owned attribute list, cached for the borrowing `attributes_iter`.
type AttrList = Box<[(String, String)]>;

/// Default frame budget: 256 × 4 KiB = 1 MiB of resident page cache.
pub const DEFAULT_POOL_PAGES: usize = 256;

/// Disk-resident interval store — the paper's architecture H.
pub struct PagedStore {
    pool: BufferPool,
    wal: Arc<LogManager>,
    header: Header,
    catalog: Catalog,
    tag_lookup: HashMap<String, u16>,
    path: PathBuf,
    wal_path: PathBuf,
    /// Delete the page + log files on drop (scratch stores).
    ephemeral: bool,
    /// Stable-address compat caches for the borrowed-`&str` trait
    /// methods; unallocated until a generic caller actually uses one.
    text_cache: LazySlots<Box<str>>,
    attr_cache: LazySlots<AttrList>,
    indexes: IndexManager,
    metadata: AtomicU64,
}

/// Fills one contiguous same-kind extent through the pool, logging each
/// page format and tracking the sparse first-owner-per-page index.
struct ExtentWriter<'a> {
    pool: &'a BufferPool,
    wal: &'a LogManager,
    kind: PageKind,
    guard: Option<PageGuard<'a>>,
    pages: u32,
    firsts: Vec<u32>,
}

impl<'a> ExtentWriter<'a> {
    fn new(pool: &'a BufferPool, wal: &'a LogManager, kind: PageKind) -> Self {
        ExtentWriter {
            pool,
            wal,
            kind,
            guard: None,
            pages: 0,
            firsts: Vec::new(),
        }
    }

    fn push(&mut self, owner: u32, rec: &[u8]) -> io::Result<()> {
        loop {
            if let Some(g) = self.guard.as_mut() {
                if g.write().insert(rec).is_some() {
                    return Ok(());
                }
            }
            let (pid, mut g) = self.pool.pin_new()?;
            let lsn = self.wal.append(&LogRecord::FormatPage {
                page: pid,
                kind: self.kind,
            });
            g.write().set_lsn(lsn);
            self.firsts.push(owner);
            self.pages += 1;
            self.guard = Some(g);
        }
    }

    fn finish(self) -> (u32, Vec<u32>) {
        (self.pages, self.firsts)
    }
}

/// The `.wal` sibling of a page file — the log [`PagedStore::create_at`]
/// writes and crash recovery (`xmark_txn::recover_paged`) scans before
/// reopening.
pub fn wal_path_for(path: &Path) -> PathBuf {
    path.with_extension("wal")
}

fn corrupt(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

impl PagedStore {
    /// Bulkload `doc` into a new page file at `path` (WAL alongside,
    /// `.wal` extension), serving reads through a pool of `pool_pages`
    /// frames. The load itself runs through the pool, so a pool smaller
    /// than the file evicts during the load.
    ///
    /// # Errors
    /// I/O failure creating or writing the files.
    pub fn create_at(path: &Path, doc: &Document, pool_pages: usize) -> io::Result<PagedStore> {
        let n = doc.node_count();
        let parent = parent_array(doc);
        let end = subtree_ends(doc);

        // Intern tags and count extents (the planner's exact statistics).
        let mut tag_code = vec![TEXT_TAG; n];
        let mut tag_names: Vec<String> = Vec::new();
        let mut tag_lookup: HashMap<String, u16> = HashMap::new();
        let mut tag_counts: Vec<u32> = Vec::new();
        for id in 0..n as u32 {
            let node = xmark_xml::NodeId(id);
            if doc.text(node).is_some() {
                continue;
            }
            let tag = doc.tag_name(node);
            let code = match tag_lookup.get(tag) {
                Some(&c) => c,
                None => {
                    let c = tag_names.len() as u16;
                    tag_names.push(tag.to_string());
                    tag_lookup.insert(tag.to_string(), c);
                    tag_counts.push(0);
                    c
                }
            };
            tag_code[id as usize] = code;
            tag_counts[code as usize] += 1;
        }

        let wal_path = wal_path_for(path);
        let wal = Arc::new(LogManager::create(&wal_path)?);
        wal.append(&LogRecord::BeginBulkLoad { nodes: n as u32 });
        let pool = BufferPool::new(
            FileManager::create(path)?,
            Some(Arc::clone(&wal)),
            pool_pages,
        );

        // Page 0 is the header; its contents are written *last* so a
        // torn load leaves no valid header behind.
        {
            let (pid, mut g) = pool.pin_new()?;
            debug_assert_eq!(pid, 0, "header must be page 0");
            let lsn = wal.append(&LogRecord::FormatPage {
                page: 0,
                kind: PageKind::Header,
            });
            g.write().set_lsn(lsn);
        }

        // Node extent: fixed 12-byte interval records in id order.
        let node_start = pool.num_pages();
        let mut writer = ExtentWriter::new(&pool, &wal, PageKind::Node);
        for id in 0..n as u32 {
            let rec = NodeRec {
                parent: parent[id as usize],
                end: end[id as usize],
                tag_code: tag_code[id as usize],
                level: 0,
            };
            writer.push(id, &rec.encode())?;
        }
        let (node_pages, _) = writer.finish();

        // Text extent: [owner u32][chunk] records, long values split on
        // char boundaries across consecutive records.
        let text_start = pool.num_pages();
        let mut writer = ExtentWriter::new(&pool, &wal, PageKind::Text);
        for id in 0..n as u32 {
            let Some(text) = doc.text(xmark_xml::NodeId(id)) else {
                continue;
            };
            let mut rest = text;
            loop {
                let mut cut = TEXT_CHUNK.min(rest.len());
                while !rest.is_char_boundary(cut) {
                    cut -= 1;
                }
                let mut rec = Vec::with_capacity(4 + cut);
                rec.extend_from_slice(&id.to_le_bytes());
                rec.extend_from_slice(&rest.as_bytes()[..cut]);
                writer.push(id, &rec)?;
                rest = &rest[cut..];
                if rest.is_empty() {
                    break;
                }
            }
        }
        let (text_pages, text_first_id) = writer.finish();

        // Attribute extent: [owner u32][name_code u16][value] records,
        // consecutive per owner in document order.
        let attr_start = pool.num_pages();
        let mut attr_names: Vec<String> = Vec::new();
        let mut attr_lookup: HashMap<String, u16> = HashMap::new();
        let mut writer = ExtentWriter::new(&pool, &wal, PageKind::Attr);
        for id in 0..n as u32 {
            for (sym, value) in doc.attributes(xmark_xml::NodeId(id)) {
                let name = doc.interner().resolve(*sym);
                let code = match attr_lookup.get(name) {
                    Some(&c) => c,
                    None => {
                        let c = attr_names.len() as u16;
                        attr_names.push(name.to_string());
                        attr_lookup.insert(name.to_string(), c);
                        c
                    }
                };
                let mut rec = Vec::with_capacity(6 + value.len());
                rec.extend_from_slice(&id.to_le_bytes());
                rec.extend_from_slice(&code.to_le_bytes());
                rec.extend_from_slice(value.as_bytes());
                writer.push(id, &rec)?;
            }
        }
        let (attr_pages, attr_first_owner) = writer.finish();

        // Catalog blob, chunked over meta pages.
        let catalog = Catalog {
            tag_names,
            attr_names,
            tag_counts,
            text_first_id,
            attr_first_owner,
        };
        let blob = catalog.encode();
        let meta_start = pool.num_pages();
        let mut writer = ExtentWriter::new(&pool, &wal, PageKind::Meta);
        for chunk in blob.chunks(TEXT_CHUNK.max(1)) {
            writer.push(0, chunk)?;
        }
        let (meta_pages, _) = writer.finish();

        // Commit: data pages down (log first, per page LSN), then the
        // bulkload end marker, then the header — strictly last.
        pool.flush_all()?;
        let end_lsn = wal.append(&LogRecord::EndBulkLoad {
            pages: pool.num_pages(),
        });
        wal.flush(end_lsn)?;
        let header = Header {
            node_count: n as u32,
            root: doc.root_element().0,
            node_start,
            node_pages,
            text_start,
            text_pages,
            attr_start,
            attr_pages,
            meta_start,
            meta_pages,
            meta_len: blob.len() as u32,
        };
        {
            let mut g = pool.pin(0)?;
            header.write_to(&mut g.write());
        }
        pool.flush_all()?;

        Ok(PagedStore {
            pool,
            wal,
            header,
            catalog,
            tag_lookup,
            path: path.to_path_buf(),
            wal_path,
            ephemeral: false,
            text_cache: OnceLock::new(),
            attr_cache: OnceLock::new(),
            indexes: IndexManager::new(),
            metadata: AtomicU64::new(0),
        })
    }

    /// Open a previously written page file **cold**: validate the WAL's
    /// bulkload end marker, read the header and catalog pages, and serve
    /// everything else on demand — no XML parse.
    ///
    /// # Errors
    /// `InvalidData` for a torn load (WAL without `EndBulkLoad`), a bad
    /// header, or checksum mismatches on the pages read here; plain I/O
    /// errors otherwise.
    pub fn open(path: &Path, pool_pages: usize) -> io::Result<PagedStore> {
        let wal_path = wal_path_for(path);
        let records = LogManager::read_all(&wal_path)?;
        if !records
            .iter()
            .any(|r| matches!(r, LogRecord::EndBulkLoad { .. }))
        {
            return Err(corrupt(format!(
                "torn bulkload: {} has no EndBulkLoad record",
                wal_path.display()
            )));
        }
        let wal = Arc::new(LogManager::open(&wal_path)?);
        let pool = BufferPool::new(FileManager::open(path)?, Some(Arc::clone(&wal)), pool_pages);
        let header = {
            let g = pool.pin(0)?;
            let page = g.read();
            Header::read_from(&page)?
        };
        let mut blob = Vec::with_capacity(header.meta_len as usize);
        for pi in 0..header.meta_pages {
            let g = pool.pin(header.meta_start + pi)?;
            let page = g.read();
            for slot in 0..page.slot_count() {
                blob.extend_from_slice(page.record(slot));
            }
        }
        if blob.len() != header.meta_len as usize {
            return Err(corrupt(format!(
                "catalog is {} bytes, header says {}",
                blob.len(),
                header.meta_len
            )));
        }
        let catalog = Catalog::decode(&blob)?;
        let tag_lookup = catalog
            .tag_names
            .iter()
            .enumerate()
            .map(|(i, t)| (t.clone(), i as u16))
            .collect();
        Ok(PagedStore {
            pool,
            wal,
            header,
            catalog,
            tag_lookup,
            path: path.to_path_buf(),
            wal_path,
            ephemeral: false,
            text_cache: OnceLock::new(),
            attr_cache: OnceLock::new(),
            indexes: IndexManager::new(),
            metadata: AtomicU64::new(0),
        })
    }

    /// Bulkload `xml` into a scratch page file under
    /// [`crate::paged::scratch_dir`]; the files are deleted when the
    /// store drops. This is the [`crate::build_store`] path for H.
    ///
    /// # Errors
    /// Propagates XML parse errors. Scratch-file I/O failure is
    /// environmental and panics.
    pub fn load_temp(xml: &str, pool_pages: usize) -> Result<PagedStore, xmark_xml::Error> {
        static SEQ: AtomicU32 = AtomicU32::new(0);
        let doc = xmark_xml::parse_document(xml)?;
        let path = super::scratch_dir().join(format!(
            "h-{}-{}.pages",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let mut store = PagedStore::create_at(&path, &doc, pool_pages)
            .unwrap_or_else(|e| panic!("scratch page store at {}: {e}", path.display()));
        store.ephemeral = true;
        Ok(store)
    }

    /// The page file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Buffer-pool counters (hits, misses, evictions, page I/O).
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Frame budget of the pool.
    pub fn pool_capacity(&self) -> usize {
        self.pool.capacity()
    }

    /// Pages in the store file.
    pub fn num_pages(&self) -> u32 {
        self.pool.num_pages()
    }

    /// Keep the page + WAL files on disk when this store drops (scratch
    /// stores delete them by default).
    pub fn persist(&mut self) {
        self.ephemeral = false;
    }

    /// Delete the page + WAL files when this store drops — the inverse of
    /// [`PagedStore::persist`], for stores created at explicit scratch
    /// paths (per-shard page files) that should not outlive their union.
    pub fn mark_ephemeral(&mut self) {
        self.ephemeral = true;
    }

    // ---- page reads ------------------------------------------------------

    fn pin(&self, pid: PageId) -> PageGuard<'_> {
        self.pool
            .pin(pid)
            .unwrap_or_else(|e| panic!("paged read of page {pid}: {e}"))
    }

    fn node_rec(&self, id: u32) -> NodeRec {
        let page = self.header.node_start + id / NODES_PER_PAGE as u32;
        let slot = (id % NODES_PER_PAGE as u32) as u16;
        let guard = self.pin(page);
        let page = guard.read();
        NodeRec::decode(page.record(slot))
    }

    /// Locate the first sparse-index page that can hold records of
    /// `owner`, walking back over pages whose first record *is* `owner`
    /// (a value spanning page boundaries).
    fn sparse_start(firsts: &[u32], owner: u32) -> Option<usize> {
        let mut pi = match firsts.partition_point(|&f| f <= owner) {
            0 => return None,
            p => p - 1,
        };
        while pi > 0 && firsts[pi] == owner {
            pi -= 1;
        }
        Some(pi)
    }

    /// Append the text content of text node `id` (concatenating its
    /// chunk records) to `out`.
    fn read_text_into(&self, id: u32, out: &mut String) {
        let Some(start) = Self::sparse_start(&self.catalog.text_first_id, id) else {
            return;
        };
        for pi in start..self.header.text_pages as usize {
            let guard = self.pin(self.header.text_start + pi as u32);
            let page = guard.read();
            for slot in 0..page.slot_count() {
                let rec = page.record(slot);
                let owner = le_u32(rec, 0);
                if owner < id {
                    continue;
                }
                if owner > id {
                    return;
                }
                // Chunks are split on char boundaries at write time, and
                // the page checksum was verified at pin time — a lossy
                // decode never actually lossifies, it just keeps the
                // infallible read path panic-free.
                out.push_str(&String::from_utf8_lossy(&rec[4..]));
            }
        }
    }

    /// All attributes of node `id`, read from the attribute extent.
    fn read_attrs(&self, id: u32) -> Vec<(String, String)> {
        let mut out = Vec::new();
        let Some(start) = Self::sparse_start(&self.catalog.attr_first_owner, id) else {
            return out;
        };
        for pi in start..self.header.attr_pages as usize {
            let guard = self.pin(self.header.attr_start + pi as u32);
            let page = guard.read();
            for slot in 0..page.slot_count() {
                let rec = page.record(slot);
                let owner = le_u32(rec, 0);
                if owner < id {
                    continue;
                }
                if owner > id {
                    return out;
                }
                let code = le_u16(rec, 4);
                let value = String::from_utf8_lossy(&rec[6..]).into_owned();
                out.push((self.catalog.attr_names[code as usize].clone(), value));
            }
        }
        out
    }

    fn text_cache(&self) -> &[OnceLock<Box<str>>] {
        self.text_cache.get_or_init(|| {
            (0..self.header.node_count)
                .map(|_| OnceLock::new())
                .collect()
        })
    }

    fn attr_cache(&self) -> &[OnceLock<AttrList>] {
        self.attr_cache.get_or_init(|| {
            (0..self.header.node_count)
                .map(|_| OnceLock::new())
                .collect()
        })
    }
}

impl fmt::Debug for PagedStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PagedStore")
            .field("path", &self.path)
            .field("nodes", &self.header.node_count)
            .field("pages", &self.pool.num_pages())
            .field("pool_capacity", &self.pool.capacity())
            .finish_non_exhaustive()
    }
}

impl Drop for PagedStore {
    fn drop(&mut self) {
        if self.ephemeral {
            let _ = std::fs::remove_file(&self.path);
            let _ = std::fs::remove_file(&self.wal_path);
        }
    }
}

// ---- streaming cursors over pinned pages --------------------------------

/// Child cursor: interval hop (`cur = end(cur) + 1`) where each `end`
/// lookup is a page read through the pool.
pub struct PagedChildren<'a> {
    store: &'a PagedStore,
    cur: u32,
    stop: u32,
}

impl Iterator for PagedChildren<'_> {
    type Item = Node;

    fn next(&mut self) -> Option<Node> {
        if self.cur > self.stop {
            return None;
        }
        let n = Node(self.cur);
        self.cur = self.store.node_rec(self.cur).end + 1;
        Some(n)
    }
}

/// [`PagedChildren`] plus a tag-code test.
pub struct PagedChildrenNamed<'a> {
    store: &'a PagedStore,
    cur: u32,
    stop: u32,
    code: u16,
}

impl Iterator for PagedChildrenNamed<'_> {
    type Item = Node;

    fn next(&mut self) -> Option<Node> {
        while self.cur <= self.stop {
            let id = self.cur;
            let rec = self.store.node_rec(id);
            self.cur = rec.end + 1;
            if rec.tag_code == self.code {
                return Some(Node(id));
            }
        }
        None
    }
}

/// Descendant scan: every id in the interval, tag-code tested — the
/// sequential-page access pattern the LRU pool likes.
pub struct PagedScanNamed<'a> {
    store: &'a PagedStore,
    cur: u32,
    stop: u32,
    code: u16,
}

impl Iterator for PagedScanNamed<'_> {
    type Item = Node;

    fn next(&mut self) -> Option<Node> {
        while self.cur <= self.stop {
            let id = self.cur;
            self.cur += 1;
            if self.store.node_rec(id).tag_code == self.code {
                return Some(Node(id));
            }
        }
        None
    }
}

impl XmlStore for PagedStore {
    fn system(&self) -> SystemId {
        SystemId::H
    }

    fn root(&self) -> Node {
        Node(self.header.root)
    }

    fn node_count(&self) -> usize {
        self.header.node_count as usize
    }

    fn size_bytes(&self) -> usize {
        // Resident only: pool frames, catalog, tag lookup, any compat
        // caches actually allocated, and the shared indexes. The page
        // file itself is disk_bytes().
        let mut total = self.pool.resident_bytes() + self.catalog.resident_bytes();
        total += self
            .tag_lookup
            .keys()
            .map(|k| k.capacity() + 2 + 48)
            .sum::<usize>();
        if let Some(cache) = self.text_cache.get() {
            total += cache.len() * std::mem::size_of::<OnceLock<Box<str>>>();
            total += cache
                .iter()
                .filter_map(|c| c.get())
                .map(|s| s.len())
                .sum::<usize>();
        }
        if let Some(cache) = self.attr_cache.get() {
            total += cache.len() * std::mem::size_of::<OnceLock<Box<[(String, String)]>>>();
            total += cache
                .iter()
                .filter_map(|c| c.get())
                .flat_map(|l| l.iter())
                .map(|(k, v)| k.capacity() + v.capacity() + 48)
                .sum::<usize>();
        }
        total + self.indexes.size_bytes()
    }

    fn disk_bytes(&self) -> usize {
        self.pool.disk_bytes() + self.wal.size_bytes()
    }

    fn paged_stats(&self) -> Option<PoolStats> {
        Some(self.pool.stats())
    }

    fn txn_wal(&self) -> Option<&LogManager> {
        Some(&self.wal)
    }

    fn indexes(&self) -> &IndexManager {
        &self.indexes
    }

    fn tag_of(&self, n: Node) -> Option<&str> {
        match self.node_rec(n.0).tag_code {
            TEXT_TAG => None,
            c => Some(&self.catalog.tag_names[c as usize]),
        }
    }

    fn is_text_node(&self, n: Node) -> bool {
        self.node_rec(n.0).tag_code == TEXT_TAG
    }

    fn parent(&self, n: Node) -> Option<Node> {
        match self.node_rec(n.0).parent {
            NONE => None,
            p => Some(Node(p)),
        }
    }

    fn text(&self, n: Node) -> Option<&str> {
        // Borrowed-return compat path: generic callers get a lazily
        // cached copy with a stable address. Hot paths never come here —
        // they use is_text_node / string_value_into / serialize_node_to.
        if !self.is_text_node(n) {
            return None;
        }
        Some(self.text_cache()[n.index()].get_or_init(|| {
            let mut s = String::new();
            self.read_text_into(n.0, &mut s);
            s.into_boxed_str()
        }))
    }

    fn attribute(&self, n: Node, name: &str) -> Option<String> {
        self.read_attrs(n.0)
            .into_iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
    }

    fn attributes(&self, n: Node) -> Vec<(String, String)> {
        self.read_attrs(n.0)
    }

    fn attributes_iter(&self, n: Node) -> AttrIter<'_> {
        // Same compat-cache story as text(): prefer attributes().
        let list =
            self.attr_cache()[n.index()].get_or_init(|| self.read_attrs(n.0).into_boxed_slice());
        if list.is_empty() {
            AttrIter::Empty
        } else {
            AttrIter::Pairs(list.iter())
        }
    }

    fn children_iter(&self, n: Node) -> ChildIter<'_> {
        ChildIter::Paged(PagedChildren {
            store: self,
            cur: n.0 + 1,
            stop: self.node_rec(n.0).end,
        })
    }

    fn children_named_iter<'a>(&'a self, n: Node, tag: &'a str) -> ChildrenNamed<'a> {
        let Some(&code) = self.tag_lookup.get(tag) else {
            return ChildrenNamed::Empty;
        };
        ChildrenNamed::Paged(PagedChildrenNamed {
            store: self,
            cur: n.0 + 1,
            stop: self.node_rec(n.0).end,
            code,
        })
    }

    fn descendants_named_iter<'a>(&'a self, n: Node, tag: &'a str) -> DescendantsNamed<'a> {
        let Some(&code) = self.tag_lookup.get(tag) else {
            return DescendantsNamed::Empty;
        };
        DescendantsNamed::PagedScan(PagedScanNamed {
            store: self,
            cur: n.0 + 1,
            stop: self.node_rec(n.0).end,
            code,
        })
    }

    fn string_value_into(&self, n: Node, out: &mut String) {
        let rec = self.node_rec(n.0);
        if rec.tag_code == TEXT_TAG {
            self.read_text_into(n.0, out);
            return;
        }
        // Subtree text in document order == ascending id over the
        // interval; a sequential page scan instead of recursion.
        for id in n.0 + 1..=rec.end {
            if self.node_rec(id).tag_code == TEXT_TAG {
                self.read_text_into(id, out);
            }
        }
    }

    fn serialize_node_to(&self, n: Node, out: &mut dyn fmt::Write) -> fmt::Result {
        let rec = self.node_rec(n.0);
        if rec.tag_code == TEXT_TAG {
            let mut s = String::new();
            self.read_text_into(n.0, &mut s);
            return xmark_xml::escape::escape_text_to(&s, out);
        }
        let tag = &self.catalog.tag_names[rec.tag_code as usize];
        out.write_char('<')?;
        out.write_str(tag)?;
        for (name, value) in self.read_attrs(n.0) {
            out.write_char(' ')?;
            out.write_str(&name)?;
            out.write_str("=\"")?;
            xmark_xml::escape::escape_attr_to(&value, out)?;
            out.write_char('"')?;
        }
        let mut children = PagedChildren {
            store: self,
            cur: n.0 + 1,
            stop: rec.end,
        };
        match children.next() {
            None => out.write_str("/>"),
            Some(first) => {
                out.write_char('>')?;
                self.serialize_node_to(first, out)?;
                for child in children {
                    self.serialize_node_to(child, out)?;
                }
                out.write_str("</")?;
                out.write_str(tag)?;
                out.write_char('>')
            }
        }
    }

    fn begin_compile(&self) {
        self.metadata.store(0, Ordering::Relaxed);
    }

    fn compile_step(&self, tag: &str) -> usize {
        self.metadata.fetch_add(1, Ordering::Relaxed);
        self.tag_lookup
            .get(tag)
            .map(|&c| self.catalog.tag_counts[c as usize] as usize)
            .unwrap_or(0)
    }

    fn metadata_accesses(&self) -> u64 {
        self.metadata.load(Ordering::Relaxed)
    }

    fn planner_caps(&self) -> PlannerCaps {
        PlannerCaps {
            id_index: true,
            // Per-tag extent counts live in the resident catalog.
            exact_statistics: true,
            // Descendant steps should stab the shared posting lists
            // instead of scanning the interval page by page.
            element_index: true,
            value_index: true,
            child_values: true,
            ..PlannerCaps::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::IntervalStore;

    const SAMPLE: &str = r#"<site><regions><europe><item id="item0" featured="yes"><name>cup</name></item><item id="item1"><name>gold coin</name></item></europe></regions><people><person id="person0"><name>Alice &amp; Bob</name></person></people></site>"#;

    fn temp(xml: &str, pool: usize) -> PagedStore {
        PagedStore::load_temp(xml, pool).unwrap()
    }

    #[test]
    fn navigation_matches_the_interval_store() {
        let h = temp(SAMPLE, 8);
        let e = IntervalStore::load_indexed(SAMPLE).unwrap();
        assert_eq!(h.node_count(), e.node_count());
        assert_eq!(h.root(), e.root());
        for id in 0..h.node_count() as u32 {
            let n = Node(id);
            assert_eq!(h.tag_of(n), e.tag_of(n), "tag of {n}");
            assert_eq!(h.parent(n), e.parent(n), "parent of {n}");
            assert_eq!(h.children(n), e.children(n), "children of {n}");
            assert_eq!(h.attributes(n), e.attributes(n), "attrs of {n}");
            assert_eq!(h.string_value(n), e.string_value(n), "value of {n}");
            assert_eq!(h.is_text_node(n), e.is_text_node(n), "is_text {n}");
        }
        let mut hs = String::new();
        let mut es = String::new();
        h.serialize_node(h.root(), &mut hs);
        e.serialize_node(e.root(), &mut es);
        assert_eq!(hs, es, "serialization");
    }

    #[test]
    fn named_cursors_and_lookup_work() {
        let h = temp(SAMPLE, 8);
        let items = h.descendants_named(h.root(), "item");
        assert_eq!(items.len(), 2);
        assert_eq!(h.attribute(items[0], "id").as_deref(), Some("item0"));
        assert_eq!(h.attribute(items[0], "featured").as_deref(), Some("yes"));
        assert_eq!(h.attribute(items[1], "featured"), None);
        let people = h.descendants_named(h.root(), "people")[0];
        assert_eq!(h.children_named(people, "person").len(), 1);
        assert_eq!(h.descendants_named(people, "name").len(), 1);
        let hit = h.lookup_id("person0").unwrap();
        assert_eq!(h.tag_of(hit), Some("person"));
        assert_eq!(h.compile_step("item"), 2);
        assert_eq!(h.compile_step("ghost"), 0);
        assert!(h.planner_caps().exact_statistics);
    }

    #[test]
    fn tiny_pool_evicts_but_answers_identically() {
        let big: String = {
            let items: String = (0..200)
                .map(|i| format!("<item id=\"item{i}\"><name>thing {i}</name></item>"))
                .collect();
            format!("<site><regions>{items}</regions></site>")
        };
        let h = temp(&big, 2);
        assert!(
            h.num_pages() > 4,
            "document should span several pages ({})",
            h.num_pages()
        );
        let e = IntervalStore::load_indexed(&big).unwrap();
        let h_names: Vec<String> = h
            .descendants_named(h.root(), "name")
            .iter()
            .map(|&n| h.string_value(n))
            .collect();
        let e_names: Vec<String> = e
            .descendants_named(e.root(), "name")
            .iter()
            .map(|&n| e.string_value(n))
            .collect();
        assert_eq!(h_names, e_names);
        let stats = h.pool_stats();
        assert!(stats.evictions > 0, "a 2-frame pool must evict: {stats:?}");
        assert!(stats.hits > 0);
    }

    #[test]
    fn text_longer_than_a_page_round_trips() {
        let long: String = "chunked text αβγ ".repeat(600); // ≫ one page, multi-byte chars
        let xml = format!("<site><doc>{long}</doc></site>");
        let h = temp(&xml, 4);
        let doc = h.descendants_named(h.root(), "doc")[0];
        assert_eq!(h.string_value(doc), long);
        // The borrowed compat path agrees with the owned read.
        let text_child = h.children(doc)[0];
        assert_eq!(h.text(text_child), Some(long.as_str()));
    }

    #[test]
    fn reopen_serves_queries_without_the_xml() {
        let path =
            super::super::scratch_dir().join(format!("h-reopen-{}.pages", std::process::id()));
        let doc = xmark_xml::parse_document(SAMPLE).unwrap();
        let mut serialized = String::new();
        {
            let store = PagedStore::create_at(&path, &doc, 8).unwrap();
            store.serialize_node(store.root(), &mut serialized);
        }
        let cold = PagedStore::open(&path, 4).unwrap();
        assert_eq!(cold.node_count(), doc.node_count());
        let mut again = String::new();
        cold.serialize_node(cold.root(), &mut again);
        assert_eq!(again, serialized);
        let stats = cold.pool_stats();
        assert!(stats.pages_read > 0, "cold open reads pages: {stats:?}");
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(wal_path_for(&path)).unwrap();
    }

    #[test]
    fn torn_wal_is_rejected_at_open() {
        let path = super::super::scratch_dir().join(format!("h-torn-{}.pages", std::process::id()));
        let doc = xmark_xml::parse_document(SAMPLE).unwrap();
        drop(PagedStore::create_at(&path, &doc, 8).unwrap());
        // Rewrite the WAL without its EndBulkLoad marker — a load that
        // died mid-flight.
        let wal_path = wal_path_for(&path);
        let log = LogManager::create(&wal_path).unwrap();
        log.append(&LogRecord::BeginBulkLoad { nodes: 1 });
        log.flush_all().unwrap();
        drop(log);
        let err = PagedStore::open(&path, 4).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("torn"), "{err}");
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(&wal_path).unwrap();
    }

    #[test]
    fn corrupted_data_page_is_detected() {
        let path =
            super::super::scratch_dir().join(format!("h-corrupt-{}.pages", std::process::id()));
        let doc = xmark_xml::parse_document(SAMPLE).unwrap();
        drop(PagedStore::create_at(&path, &doc, 8).unwrap());
        // Flip a byte in page 1 (first node page).
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[super::super::PAGE_SIZE + 64] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let cold = PagedStore::open(&path, 4).unwrap(); // header + meta still fine
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cold.children(cold.root());
        }));
        assert!(err.is_err(), "reading the corrupted page must fail");
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(wal_path_for(&path)).unwrap();
    }

    #[test]
    fn resident_bytes_stay_bounded_by_the_pool_not_the_file() {
        let big: String = {
            let items: String = (0..400)
                .map(|i| format!("<item id=\"i{i}\"><name>widget number {i}</name></item>"))
                .collect();
            format!("<site><regions>{items}</regions></site>")
        };
        let h = temp(&big, 4);
        let _ = h.descendants_named(h.root(), "name");
        assert!(h.disk_bytes() > 10 * super::super::PAGE_SIZE);
        // Resident: 4 frames + catalog + lookup — far below the file.
        assert!(
            h.size_bytes() < h.disk_bytes() / 2,
            "resident {} vs disk {}",
            h.size_bytes(),
            h.disk_bytes()
        );
    }
}
