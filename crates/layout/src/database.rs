use std::collections::BTreeMap;
use std::sync::OnceLock;

use ace_cif::{CifFile, Command, Shape, SymbolId};
use ace_geom::{
    fracture_polygon, fracture_round_flash, fracture_wire, Layer, Point, Rect, Transform, LAMBDA,
};

use crate::error::BuildLayoutError;

/// Index of a [`Cell`] within its [`Library`].
pub type CellId = usize;

/// A placed child cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Instance {
    /// The instantiated cell.
    pub cell: CellId,
    /// Placement transform (child coordinates → parent coordinates).
    pub transform: Transform,
}

/// A net-name label inside a cell (from a CIF `94` command).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabelDef {
    /// The user-defined signal name.
    pub name: String,
    /// Position in cell coordinates.
    pub at: Point,
    /// Optional layer restriction.
    pub layer: Option<Layer>,
}

/// One cell of the layout database: fractured primitive boxes, labels,
/// and child instances.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Cell {
    name: String,
    symbol: Option<SymbolId>,
    boxes: Vec<(Layer, Rect)>,
    labels: Vec<LabelDef>,
    instances: Vec<Instance>,
    bbox: Option<Rect>,
}

impl Cell {
    /// Human-readable name (CIF `9` extension, or `S<id>`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Originating CIF symbol id, if any.
    pub fn symbol(&self) -> Option<SymbolId> {
        self.symbol
    }

    /// The cell's own (already fractured) boxes.
    pub fn boxes(&self) -> &[(Layer, Rect)] {
        &self.boxes
    }

    /// The cell's own labels.
    pub fn labels(&self) -> &[LabelDef] {
        &self.labels
    }

    /// Child instances.
    pub fn instances(&self) -> &[Instance] {
        &self.instances
    }

    /// Bounding box of the cell including all children, or `None` for
    /// an empty cell.
    pub fn bounding_box(&self) -> Option<Rect> {
        self.bbox
    }
}

/// The layout database: all cells plus a designated top cell.
///
/// Built from a parsed [`CifFile`]; geometry is fractured into
/// manhattan boxes during construction, so consumers only ever see
/// `(Layer, Rect)` pairs.
///
/// # Examples
///
/// ```
/// use ace_layout::Library;
///
/// let lib = Library::from_cif_text("
///     DS 1; 9 bit; L ND; B 400 400 0 0; DF;
///     C 1 T 0 0;
///     C 1 T 1000 0;
///     E
/// ")?;
/// assert_eq!(lib.cell(lib.top()).instances().len(), 2);
/// assert_eq!(lib.instantiated_box_count(), 2);
/// # Ok::<(), ace_layout::BuildLayoutError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Library {
    cells: Vec<Cell>,
    top: CellId,
    /// Per-cell content hashes, computed on the first
    /// [`Library::content_hash`] call (only HEXT reads them).
    content_hashes: OnceLock<Vec<u64>>,
}

/// Libraries are equal when their cells and top are; whether the
/// content-hash cache has been filled is not part of the value.
impl PartialEq for Library {
    fn eq(&self, other: &Self) -> bool {
        self.top == other.top && self.cells == other.cells
    }
}
impl Eq for Library {}

impl Library {
    /// Builds a library from a parsed CIF file.
    ///
    /// Top-level commands become a synthetic cell named `(top)`.
    ///
    /// # Errors
    ///
    /// [`BuildLayoutError::UnknownSymbol`] if a call references an
    /// undefined symbol; [`BuildLayoutError::RecursiveSymbol`] if the
    /// call graph has a cycle.
    pub fn from_cif(file: &CifFile) -> Result<Library, BuildLayoutError> {
        let mut ids: BTreeMap<SymbolId, CellId> = BTreeMap::new();
        for (i, &id) in file.symbols().keys().enumerate() {
            ids.insert(id, i);
        }
        let top = ids.len();

        let mut cells: Vec<Cell> = Vec::with_capacity(ids.len() + 1);
        for def in file.symbols().values() {
            let mut cell = build_cell(&def.items, &ids)?;
            cell.symbol = Some(def.id);
            cell.name = def
                .cell_name()
                .map(str::to_owned)
                .unwrap_or_else(|| format!("S{}", def.id));
            cells.push(cell);
        }
        let mut top_cell = build_cell(file.top_level(), &ids)?;
        top_cell.name = "(top)".to_string();
        cells.push(top_cell);

        let mut lib = Library {
            cells,
            top,
            content_hashes: OnceLock::new(),
        };
        lib.check_acyclic()?;
        lib.compute_bounding_boxes();
        Ok(lib)
    }

    /// Convenience: parse CIF text and build the library.
    ///
    /// # Errors
    ///
    /// Propagates parse errors and the errors of [`Library::from_cif`].
    pub fn from_cif_text(src: &str) -> Result<Library, BuildLayoutError> {
        Library::from_cif(&ace_cif::parse(src)?)
    }

    /// The top cell's id.
    pub fn top(&self) -> CellId {
        self.top
    }

    /// Looks up a cell.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn cell(&self, id: CellId) -> &Cell {
        &self.cells[id]
    }

    /// All cells, topologically unordered.
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// Finds a cell by its CIF symbol id.
    pub fn cell_by_symbol(&self, symbol: SymbolId) -> Option<CellId> {
        self.cells.iter().position(|c| c.symbol == Some(symbol))
    }

    /// Bounding box of the whole chip (the top cell).
    pub fn bounding_box(&self) -> Option<Rect> {
        self.cells[self.top].bbox
    }

    /// Total number of boxes in the fully-instantiated chip — the
    /// paper's `N`. Counted with multiplicity but without expanding
    /// anything (pure arithmetic over the DAG, children first, with an
    /// explicit stack, so hierarchy depth costs heap, not call stack).
    ///
    /// The count saturates at [`u64::MAX`]: a few dozen levels of "call
    /// the previous symbol twice" describe more boxes than a `u64`
    /// holds, and a saturated count still reads as "too many" where a
    /// wrapped one could read as zero.
    pub fn instantiated_box_count(&self) -> u64 {
        let mut count = vec![0u64; self.cells.len()];
        for id in self.children_first([self.top]) {
            let cell = &self.cells[id];
            count[id] = cell
                .instances
                .iter()
                .fold(cell.boxes.len() as u64, |n, inst| {
                    n.saturating_add(count[inst.cell])
                });
        }
        count[self.top]
    }

    /// Structural hash of a cell's *full* contents — geometry,
    /// labels, and all descendants with their placements. Two cells
    /// hash equal exactly when their fully-instantiated artwork is
    /// identical, independently of which [`Library`] they live in or
    /// what their symbol ids are. This is what lets the hierarchical
    /// extractor reuse window analyses across extraction runs
    /// (incremental extraction).
    ///
    /// The first call hashes every cell of the library at once; later
    /// calls are a table lookup.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of range.
    pub fn content_hash(&self, cell: CellId) -> u64 {
        self.content_hashes
            .get_or_init(|| self.compute_content_hashes())[cell]
    }

    /// The cells reachable from `roots`, each listed after every cell
    /// it instantiates. Found with an explicit stack, so hierarchy
    /// depth costs heap, not call stack; the library is acyclic.
    pub(crate) fn children_first(&self, roots: impl IntoIterator<Item = CellId>) -> Vec<CellId> {
        let mut order = Vec::new();
        let mut done = vec![false; self.cells.len()];
        for root in roots {
            let mut stack = vec![(root, false)];
            while let Some((id, children_done)) = stack.pop() {
                if done[id] {
                    continue;
                }
                if children_done {
                    done[id] = true;
                    order.push(id);
                } else {
                    stack.push((id, true));
                    for inst in &self.cells[id].instances {
                        if !done[inst.cell] {
                            stack.push((inst.cell, false));
                        }
                    }
                }
            }
        }
        order
    }

    fn check_acyclic(&self) -> Result<(), BuildLayoutError> {
        // Colors: 0 = white, 1 = on stack, 2 = done.
        let mut color = vec![0u8; self.cells.len()];
        // Iterative DFS to survive deep hierarchies.
        for start in 0..self.cells.len() {
            if color[start] != 0 {
                continue;
            }
            let mut stack: Vec<(CellId, usize)> = vec![(start, 0)];
            color[start] = 1;
            while let Some(&mut (id, ref mut next)) = stack.last_mut() {
                let cell = &self.cells[id];
                if *next < cell.instances.len() {
                    let child = cell.instances[*next].cell;
                    *next += 1;
                    match color[child] {
                        0 => {
                            color[child] = 1;
                            stack.push((child, 0));
                        }
                        1 => {
                            let sym = self.cells[child].symbol.unwrap_or(0);
                            return Err(BuildLayoutError::RecursiveSymbol(sym));
                        }
                        _ => {}
                    }
                } else {
                    color[id] = 2;
                    stack.pop();
                }
            }
        }
        Ok(())
    }

    fn compute_bounding_boxes(&mut self) {
        for id in self.children_first(0..self.cells.len()) {
            let mut bb: Option<Rect> = None;
            for &(_, r) in &self.cells[id].boxes {
                bb = Some(match bb {
                    Some(acc) => acc.bounding_union(&r),
                    None => r,
                });
            }
            // Labels extend the bbox too, so it covers everything
            // the cell places.
            for label in &self.cells[id].labels {
                let p = Rect::new(label.at.x, label.at.y, label.at.x, label.at.y);
                bb = Some(match bb {
                    Some(acc) => acc.bounding_union(&p),
                    None => p,
                });
            }
            for inst in &self.cells[id].instances {
                if let Some(child_bb) = self.cells[inst.cell].bbox {
                    let mapped = inst.transform.apply_rect(&child_bb);
                    bb = Some(match bb {
                        Some(acc) => acc.bounding_union(&mapped),
                        None => mapped,
                    });
                }
            }
            self.cells[id].bbox = bb;
        }
    }
}

impl Library {
    fn compute_content_hashes(&self) -> Vec<u64> {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut hashes = vec![0u64; self.cells.len()];
        for id in self.children_first(0..self.cells.len()) {
            let mut h = DefaultHasher::new();
            let cell = &self.cells[id];
            let mut boxes = cell.boxes.clone();
            boxes.sort_unstable();
            for (layer, r) in boxes {
                (layer.index(), r.x_min, r.y_min, r.x_max, r.y_max).hash(&mut h);
            }
            0xAAu8.hash(&mut h);
            let mut labels: Vec<_> = cell
                .labels
                .iter()
                .map(|l| (l.name.clone(), l.at, l.layer.map(Layer::index)))
                .collect();
            labels.sort();
            for (name, at, layer) in labels {
                (name, at.x, at.y, layer).hash(&mut h);
            }
            0xABu8.hash(&mut h);
            let mut children: Vec<_> = cell
                .instances
                .iter()
                .map(|i| {
                    (
                        hashes[i.cell],
                        i.transform.translation(),
                        i.transform.orientation() as u8,
                    )
                })
                .collect();
            children.sort();
            for (hash, t, o) in children {
                (hash, t.x, t.y, o).hash(&mut h);
            }
            hashes[id] = h.finish();
        }
        hashes
    }
}

fn build_cell(
    items: &[Command],
    ids: &BTreeMap<SymbolId, CellId>,
) -> Result<Cell, BuildLayoutError> {
    let mut cell = Cell::default();
    for cmd in items {
        match cmd {
            Command::Geometry { layer, shape } => {
                fracture_shape(shape, |r| cell.boxes.push((*layer, r)));
            }
            Command::Call { symbol, transform } => {
                let &target = ids
                    .get(symbol)
                    .ok_or(BuildLayoutError::UnknownSymbol(*symbol))?;
                cell.instances.push(Instance {
                    cell: target,
                    transform: *transform,
                });
            }
            Command::Label { name, at, layer } => {
                cell.labels.push(LabelDef {
                    name: name.clone(),
                    at: *at,
                    layer: *layer,
                });
            }
            Command::CellName(_) | Command::UserExtension(_) => {}
        }
    }
    Ok(cell)
}

/// Fractures one CIF shape into manhattan boxes.
fn fracture_shape(shape: &Shape, mut emit: impl FnMut(Rect)) {
    match shape {
        Shape::Box(r) => emit(*r),
        Shape::Polygon(p) => {
            for r in fracture_polygon(p, LAMBDA) {
                emit(r);
            }
        }
        Shape::Wire(w) => {
            for r in fracture_wire(w, LAMBDA) {
                emit(r);
            }
        }
        Shape::RoundFlash { diameter, center } => {
            // Octagon inscribed in the flash circle, cut into strips
            // symmetric about the center (see
            // `ace_geom::fracture_round_flash` for the rounding
            // rules — the generic polygon path shifted odd-diameter
            // flashes half a unit off center).
            for b in fracture_round_flash(*diameter, *center, LAMBDA) {
                emit(b);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_simple_hierarchy() {
        let lib = Library::from_cif_text(
            "DS 1; 9 leaf; L ND; B 400 400 0 200; DF;
             DS 2; 9 pair; C 1 T 0 0; C 1 T 1000 0; DF;
             C 2 T 0 0; C 2 T 0 2000; E",
        )
        .unwrap();
        assert_eq!(lib.cells().len(), 3); // leaf, pair, (top)
        let leaf = lib.cell_by_symbol(1).unwrap();
        assert_eq!(lib.cell(leaf).name(), "leaf");
        assert_eq!(lib.cell(leaf).boxes().len(), 1);
        assert_eq!(lib.instantiated_box_count(), 4);
    }

    #[test]
    fn bounding_boxes_include_children() {
        let lib = Library::from_cif_text(
            "DS 1; L ND; B 400 400 0 0; DF;
             C 1 T 0 0; C 1 T 1000 500; E",
        )
        .unwrap();
        assert_eq!(lib.bounding_box(), Some(Rect::new(-200, -200, 1200, 700)));
    }

    #[test]
    fn bounding_boxes_respect_transforms() {
        let lib = Library::from_cif_text(
            "DS 1; L ND; B 400 100 300 0; DF;
             C 1 R 0 1; E", // rotate 90°: x-extent becomes y-extent
        )
        .unwrap();
        // Cell box: [100,-50;500,50]. R90 maps to [-50,100;50,500].
        assert_eq!(lib.bounding_box(), Some(Rect::new(-50, 100, 50, 500)));
    }

    #[test]
    fn unknown_symbol_is_an_error() {
        let err = Library::from_cif_text("C 99 T 0 0; E").unwrap_err();
        assert_eq!(err, BuildLayoutError::UnknownSymbol(99));
    }

    #[test]
    fn recursion_is_an_error() {
        // 1 calls 2 calls 1. Parsing is fine; building must fail.
        let err =
            Library::from_cif_text("DS 1; C 2 T 0 0; DF; DS 2; C 1 T 0 0; DF; C 1; E").unwrap_err();
        assert!(matches!(err, BuildLayoutError::RecursiveSymbol(_)));
    }

    #[test]
    fn polygons_and_wires_are_fractured() {
        let lib = Library::from_cif_text(
            "L NM; P 0 0 300 0 300 100 100 100 100 300 0 300; W 100 0 0 1000 0; E",
        )
        .unwrap();
        let cell = lib.cell(lib.top());
        assert!(cell.boxes().len() >= 3); // ≥2 from the L, 1 from the wire
        for (layer, _) in cell.boxes() {
            assert_eq!(*layer, Layer::Metal);
        }
    }

    #[test]
    fn round_flash_becomes_octagon_boxes() {
        let lib = Library::from_cif_text("L NC; R 1000 0 0; E").unwrap();
        let cell = lib.cell(lib.top());
        assert!(!cell.boxes().is_empty());
        let bb = lib.bounding_box().unwrap();
        assert!(Rect::new(-500, -500, 500, 500).contains_rect(&bb));
        // Covers most of the circle's area.
        let area: i64 = cell.boxes().iter().map(|(_, r)| r.area()).sum();
        assert!(area > 700_000, "octagon area {area} too small");
    }

    #[test]
    fn labels_are_recorded() {
        let lib = Library::from_cif_text("94 VDD 10 20 NM; E").unwrap();
        let cell = lib.cell(lib.top());
        assert_eq!(cell.labels().len(), 1);
        assert_eq!(cell.labels()[0].name, "VDD");
        assert_eq!(cell.labels()[0].layer, Some(Layer::Metal));
    }

    #[test]
    fn empty_library_has_no_bbox() {
        let lib = Library::from_cif_text("E").unwrap();
        assert_eq!(lib.bounding_box(), None);
        assert_eq!(lib.instantiated_box_count(), 0);
    }

    #[test]
    fn content_hashes_are_library_independent() {
        // The same cell defined in two different libraries (different
        // symbol ids, different sibling cells) hashes identically.
        let a =
            Library::from_cif_text("DS 1; L ND; B 4 4 0 0; L NP; B 8 2 0 0; DF; C 1; E").unwrap();
        let b = Library::from_cif_text(
            "DS 7; L NM; B 2 2 50 50; DF;
             DS 9; L NP; B 8 2 0 0; L ND; B 4 4 0 0; DF;
             C 9; C 7; E",
        )
        .unwrap();
        let ha = a.content_hash(a.cell_by_symbol(1).unwrap());
        let hb = b.content_hash(b.cell_by_symbol(9).unwrap());
        assert_eq!(ha, hb, "same content must hash equal across libraries");
        let other = b.content_hash(b.cell_by_symbol(7).unwrap());
        assert_ne!(ha, other);
    }

    #[test]
    fn content_hashes_cover_descendants() {
        let a = Library::from_cif_text("DS 1; L ND; B 4 4 0 0; DF; DS 2; C 1 T 10 0; DF; C 2; E")
            .unwrap();
        let b = Library::from_cif_text("DS 1; L ND; B 4 4 0 0; DF; DS 2; C 1 T 20 0; DF; C 2; E")
            .unwrap();
        // The leaf is identical, the parent differs (child placement).
        let leaf = |l: &Library| l.content_hash(l.cell_by_symbol(1).unwrap());
        let parent = |l: &Library| l.content_hash(l.cell_by_symbol(2).unwrap());
        assert_eq!(leaf(&a), leaf(&b));
        assert_ne!(parent(&a), parent(&b));
    }

    #[test]
    fn deep_shared_hierarchy_counts_boxes_without_blowup() {
        // 2^20 boxes via 20 levels of doubling — must count instantly.
        let mut src = String::from("DS 1; L ND; B 4 4 0 0; DF;");
        for i in 2..=21 {
            src.push_str(&format!(
                "DS {i}; C {p} T 0 0; C {p} T 10 0; DF;",
                p = i - 1
            ));
        }
        src.push_str("C 21; E");
        let lib = Library::from_cif_text(&src).unwrap();
        assert_eq!(lib.instantiated_box_count(), 1 << 20);
    }

    /// `DS 1` holds one box; each further symbol calls the previous
    /// one, twice when `doubling`.
    fn chain(levels: usize, doubling: bool) -> String {
        let mut src = String::from("DS 1; L ND; B 4 4 0 0; DF;");
        for i in 2..=levels {
            let second = if doubling {
                format!(" C {} T 10 0;", i - 1)
            } else {
                String::new()
            };
            src.push_str(&format!("DS {i}; C {} T 0 0;{second} DF;", i - 1));
        }
        src.push_str(&format!("C {levels}; E"));
        src
    }

    #[test]
    fn box_count_survives_deep_chains_on_a_small_stack() {
        // One level per symbol: a recursive count would need 100,000
        // frames; the iterative one fits a 2 MB thread stack.
        let src = chain(100_000, false);
        let count = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                Library::from_cif_text(&src)
                    .unwrap()
                    .instantiated_box_count()
            })
            .unwrap()
            .join()
            .unwrap();
        assert_eq!(count, 1);
    }

    #[test]
    fn box_count_saturates_instead_of_wrapping() {
        // 70 doubling levels describe 2^69 boxes; an unchecked sum
        // wraps to 0.
        let lib = Library::from_cif_text(&chain(70, true)).unwrap();
        assert_eq!(lib.instantiated_box_count(), u64::MAX);
        let lib = Library::from_cif_text(&chain(64, true)).unwrap();
        assert_eq!(lib.instantiated_box_count(), 1 << 63);
    }

    #[test]
    fn content_hashes_are_computed_on_first_use() {
        let lib = Library::from_cif_text(&chain(3, true)).unwrap();
        assert!(lib.content_hashes.get().is_none(), "building must not hash");
        let top = lib.content_hash(lib.top());
        assert_eq!(lib.content_hashes.get().map(Vec::len), Some(4));
        assert_eq!(lib.content_hash(lib.top()), top);
        // A clone with a filled cache still equals a fresh build.
        assert_eq!(
            lib.clone(),
            Library::from_cif_text(&chain(3, true)).unwrap()
        );
    }
}
