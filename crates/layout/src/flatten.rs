use ace_geom::{Coord, Layer, Point, Rect, Transform};

use crate::database::{CellId, Library};

/// One fully-instantiated box.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct LayerBox {
    /// Mask layer.
    pub layer: Layer,
    /// Absolute chip coordinates.
    pub rect: Rect,
}

/// One fully-instantiated net label, in absolute coordinates.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct FlatLabel {
    /// Signal name.
    pub name: String,
    /// Absolute position.
    pub at: Point,
    /// Optional layer restriction.
    pub layer: Option<Layer>,
}

/// A fully-instantiated (flat) layout: every box and label of the
/// chip in absolute coordinates.
///
/// This is the representation the raster baselines and the eager
/// front-end work from. For large regular chips it is much bigger
/// than the hierarchical [`Library`] — that asymmetry is the whole
/// point of the HEXT paper.
///
/// # Examples
///
/// ```
/// use ace_layout::{FlatLayout, Library};
///
/// let lib = Library::from_cif_text("
///     DS 1; L ND; B 400 400 0 0; DF;
///     C 1 T 0 0; C 1 T 1000 0; E
/// ")?;
/// let flat = FlatLayout::from_library(&lib);
/// assert_eq!(flat.boxes().len(), 2);
/// # Ok::<(), ace_layout::BuildLayoutError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FlatLayout {
    boxes: Vec<LayerBox>,
    labels: Vec<FlatLabel>,
}

impl FlatLayout {
    /// Creates an empty layout.
    pub fn new() -> Self {
        FlatLayout::default()
    }

    /// Fully instantiates a library's top cell.
    pub fn from_library(lib: &Library) -> FlatLayout {
        FlatLayout::from_cell(lib, lib.top())
    }

    /// Fully instantiates one cell of a library.
    pub fn from_cell(lib: &Library, cell: CellId) -> FlatLayout {
        let mut flat = FlatLayout::new();
        // Iterative DFS over (cell, transform) placements.
        let mut stack = vec![(cell, Transform::identity())];
        while let Some((id, t)) = stack.pop() {
            let c = lib.cell(id);
            for &(layer, r) in c.boxes() {
                flat.boxes.push(LayerBox {
                    layer,
                    rect: t.apply_rect(&r),
                });
            }
            for label in c.labels() {
                flat.labels.push(FlatLabel {
                    name: label.name.clone(),
                    at: t.apply_point(label.at),
                    layer: label.layer,
                });
            }
            for inst in c.instances() {
                stack.push((inst.cell, inst.transform.then(t)));
            }
        }
        flat
    }

    /// The instantiated boxes.
    pub fn boxes(&self) -> &[LayerBox] {
        &self.boxes
    }

    /// The instantiated labels.
    pub fn labels(&self) -> &[FlatLabel] {
        &self.labels
    }

    /// Moves the boxes and labels out, without copying.
    pub(crate) fn into_parts(self) -> (Vec<LayerBox>, Vec<FlatLabel>) {
        (self.boxes, self.labels)
    }

    /// Adds one box.
    pub fn push_box(&mut self, layer: Layer, rect: Rect) {
        self.boxes.push(LayerBox { layer, rect });
    }

    /// Adds one label.
    pub fn push_label(&mut self, name: impl Into<String>, at: Point, layer: Option<Layer>) {
        self.labels.push(FlatLabel {
            name: name.into(),
            at,
            layer,
        });
    }

    /// Removes one box equal to `(layer, rect)`; returns whether a
    /// match existed. Duplicates are a multiset: one call removes one
    /// copy. Box order is not preserved (callers that need scan order
    /// re-sort with [`sort_for_scan`](Self::sort_for_scan)).
    pub fn remove_box(&mut self, layer: Layer, rect: Rect) -> bool {
        match self
            .boxes
            .iter()
            .position(|b| b.layer == layer && b.rect == rect)
        {
            Some(i) => {
                self.boxes.swap_remove(i);
                true
            }
            None => false,
        }
    }

    /// Removes one label equal to `(name, at, layer)`; returns whether
    /// a match existed. Like [`remove_box`](Self::remove_box), one
    /// call removes one copy of a duplicated label.
    pub fn remove_label(&mut self, name: &str, at: Point, layer: Option<Layer>) -> bool {
        match self
            .labels
            .iter()
            .position(|l| l.name == name && l.at == at && l.layer == layer)
        {
            Some(i) => {
                self.labels.swap_remove(i);
                true
            }
            None => false,
        }
    }

    /// Removes every entry of `remove` (as a multiset) in one pass —
    /// O(layout + remove), where repeated [`remove_box`](Self::remove_box)
    /// calls would be O(layout × remove). Returns the first entry
    /// that had no match, if any — matched entries are removed even
    /// then. Box order is not preserved.
    pub fn remove_boxes_bulk(&mut self, remove: &[LayerBox]) -> Option<LayerBox> {
        use std::collections::HashMap;
        if remove.is_empty() {
            return None;
        }
        let mut want: HashMap<(Layer, Rect), usize> = HashMap::new();
        let (mut y_lo, mut y_hi) = (Coord::MAX, Coord::MIN);
        for b in remove {
            y_lo = y_lo.min(b.rect.y_min);
            y_hi = y_hi.max(b.rect.y_max);
            *want.entry((b.layer, b.rect)).or_insert(0) += 1;
        }
        self.boxes.retain(|b| {
            // A match equals a removal entry exactly, so anything
            // outside the removal set's y-extent keeps without the
            // hash lookup — the dominant cost when a small diff hits
            // a large layout.
            if b.rect.y_min < y_lo || b.rect.y_max > y_hi {
                return true;
            }
            match want.get_mut(&(b.layer, b.rect)) {
                Some(n) if *n > 0 => {
                    *n -= 1;
                    false
                }
                _ => true,
            }
        });
        remove
            .iter()
            .find(|b| want.get(&(b.layer, b.rect)).is_some_and(|n| *n > 0))
            .copied()
    }

    /// Label counterpart of [`remove_boxes_bulk`](Self::remove_boxes_bulk).
    pub fn remove_labels_bulk(&mut self, remove: &[FlatLabel]) -> Option<FlatLabel> {
        use std::collections::HashMap;
        if remove.is_empty() {
            return None;
        }
        let mut want: HashMap<&str, HashMap<(Point, Option<Layer>), usize>> = HashMap::new();
        let (mut y_lo, mut y_hi) = (Coord::MAX, Coord::MIN);
        for l in remove {
            y_lo = y_lo.min(l.at.y);
            y_hi = y_hi.max(l.at.y);
            *want
                .entry(l.name.as_str())
                .or_default()
                .entry((l.at, l.layer))
                .or_insert(0) += 1;
        }
        let mut kept = Vec::with_capacity(self.labels.len());
        for l in self.labels.drain(..) {
            if l.at.y < y_lo || l.at.y > y_hi {
                kept.push(l);
                continue;
            }
            let hit = want
                .get_mut(l.name.as_str())
                .and_then(|m| m.get_mut(&(l.at, l.layer)))
                .filter(|n| **n > 0);
            match hit {
                Some(n) => *n -= 1,
                None => kept.push(l),
            }
        }
        self.labels = kept;
        remove
            .iter()
            .find(|l| {
                want.get(l.name.as_str())
                    .and_then(|m| m.get(&(l.at, l.layer)))
                    .is_some_and(|n| *n > 0)
            })
            .cloned()
    }

    /// Bounding box of all boxes (labels excluded).
    pub fn bounding_box(&self) -> Option<Rect> {
        let mut it = self.boxes.iter();
        let first = it.next()?.rect;
        Some(it.fold(first, |acc, b| acc.bounding_union(&b.rect)))
    }

    /// Sorts boxes by descending top edge (the front-end's output
    /// order), breaking ties by ascending x.
    pub fn sort_for_scan(&mut self) {
        self.boxes.sort_unstable_by(|a, b| {
            b.rect
                .y_max
                .cmp(&a.rect.y_max)
                .then(a.rect.x_min.cmp(&b.rect.x_min))
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Library;

    #[test]
    fn flattening_applies_nested_transforms() {
        let lib = Library::from_cif_text(
            "DS 1; L ND; B 100 100 50 50; DF;
             DS 2; C 1 T 1000 0; DF;
             C 2 T 0 2000; E",
        )
        .unwrap();
        let flat = FlatLayout::from_library(&lib);
        assert_eq!(flat.boxes().len(), 1);
        assert_eq!(flat.boxes()[0].rect, Rect::new(1000, 2000, 1100, 2100));
    }

    #[test]
    fn flattening_transforms_labels() {
        let lib = Library::from_cif_text(
            "DS 1; 94 out 10 10 NP; DF;
             C 1 T 500 500; C 1 T 900 900; E",
        )
        .unwrap();
        let flat = FlatLayout::from_library(&lib);
        let mut positions: Vec<Point> = flat.labels().iter().map(|l| l.at).collect();
        positions.sort();
        assert_eq!(positions, vec![Point::new(510, 510), Point::new(910, 910)]);
    }

    #[test]
    fn mirror_transform_flattens_correctly() {
        let lib = Library::from_cif_text(
            "DS 1; L NP; B 100 100 100 0; DF;
             C 1 M X; E",
        )
        .unwrap();
        let flat = FlatLayout::from_library(&lib);
        // Box [50,-50;150,50] mirrored in x → [-150,-50;-50,50].
        assert_eq!(flat.boxes()[0].rect, Rect::new(-150, -50, -50, 50));
    }

    #[test]
    fn sort_for_scan_orders_by_descending_top() {
        let lib =
            Library::from_cif_text("L ND; B 10 10 0 0; B 10 10 0 100; B 10 10 50 100; E").unwrap();
        let mut flat = FlatLayout::from_library(&lib);
        flat.sort_for_scan();
        let tops: Vec<i64> = flat.boxes().iter().map(|b| b.rect.y_max).collect();
        assert_eq!(tops, vec![105, 105, 5]);
        assert!(flat.boxes()[0].rect.x_min < flat.boxes()[1].rect.x_min);
    }

    #[test]
    fn counts_match_library_arithmetic() {
        let lib = Library::from_cif_text(
            "DS 1; L ND; B 4 4 0 0; B 4 4 10 0; DF;
             DS 2; C 1 T 0 0; C 1 T 100 0; C 1 T 200 0; DF;
             C 2; C 2 T 0 100; E",
        )
        .unwrap();
        let flat = FlatLayout::from_library(&lib);
        assert_eq!(flat.boxes().len() as u64, lib.instantiated_box_count());
        assert_eq!(flat.boxes().len(), 12);
    }
}
