//! The HEXT front-end: window contents, clustering, and slicing.
//!
//! "The front-end divides the window into a set of sub-windows and
//! then applies the algorithm to each sub-window recursively. …
//! Whenever the bounding boxes of two or more symbols overlap, create
//! a new window using the boundaries of the bounding boxes to define
//! the edges. … Slice the original window into a set of sub-windows,
//! using the sub-windows found in step 3 for guidance." (HEXT §3,
//! Figure 3-1.)

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use ace_geom::{Coord, Layer, Point, Rect, Transform};
use ace_layout::{CellId, FlatLabel, Library};

/// Content hash used to recognize redundant windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WindowKey(pub u64);

/// The contents of one window, in window-local or parent coordinates
/// depending on context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Content {
    /// The window rectangle.
    pub rect: Rect,
    /// Loose geometry (already clipped to `rect`).
    pub boxes: Vec<(Layer, Rect)>,
    /// Unexpanded symbol instances.
    pub instances: Vec<(CellId, Transform)>,
    /// Net labels inside the window.
    pub labels: Vec<FlatLabel>,
}

impl Content {
    /// The whole-chip content of a library's top cell.
    pub fn chip(lib: &Library) -> Option<Content> {
        let top = lib.cell(lib.top());
        let rect = lib.bounding_box()?;
        Some(Content {
            rect,
            boxes: top.boxes().to_vec(),
            instances: top
                .instances()
                .iter()
                .map(|i| (i.cell, i.transform))
                .collect(),
            labels: top
                .labels()
                .iter()
                .map(|l| FlatLabel {
                    name: l.name.clone(),
                    at: l.at,
                    layer: l.layer,
                })
                .collect(),
        })
    }

    /// `true` when the window contains only geometry and can go to
    /// the flat extractor.
    pub fn is_primitive(&self) -> bool {
        self.instances.is_empty()
    }

    /// `true` when the window holds nothing at all.
    pub fn is_empty(&self) -> bool {
        self.boxes.is_empty() && self.instances.is_empty() && self.labels.is_empty()
    }

    /// Translates everything so the window's lower-left corner is at
    /// the origin; returns the shift that was applied.
    pub fn normalize(&mut self) -> Point {
        let shift = -Point::new(self.rect.x_min, self.rect.y_min);
        if shift == Point::ORIGIN {
            return Point::ORIGIN;
        }
        self.rect = self.rect.translate(shift);
        for (_, r) in &mut self.boxes {
            *r = r.translate(shift);
        }
        for (_, t) in &mut self.instances {
            *t = t.translate(shift);
        }
        for l in &mut self.labels {
            l.at += shift;
        }
        shift
    }

    /// Canonical sort of the content lists (so keys are order
    /// independent). Instances sort by their cells' *content hashes*,
    /// which are stable across libraries.
    pub fn canonicalize(&mut self, lib: &Library) {
        self.boxes.sort_unstable();
        self.instances.sort_unstable_by_key(|&(cell, t)| {
            (
                lib.content_hash(cell),
                t.translation(),
                t.orientation() as u8,
            )
        });
        self.labels
            .sort_unstable_by(|a, b| (&a.name, a.at, a.layer).cmp(&(&b.name, b.at, b.layer)));
    }

    /// Content hash of a normalized, canonicalized window. Instances
    /// hash by their cells' deep content hashes, so identical windows
    /// from *different* libraries (or different extraction runs) hash
    /// equal — the basis for incremental extraction.
    pub fn key(&self, lib: &Library) -> WindowKey {
        let mut h = DefaultHasher::new();
        (self.rect.width(), self.rect.height()).hash(&mut h);
        for (layer, r) in &self.boxes {
            (layer.index(), r.x_min, r.y_min, r.x_max, r.y_max).hash(&mut h);
        }
        0xB0u8.hash(&mut h);
        for (cell, t) in &self.instances {
            (
                lib.content_hash(*cell),
                t.translation().x,
                t.translation().y,
                t.orientation() as u8,
            )
                .hash(&mut h);
        }
        0xB1u8.hash(&mut h);
        for l in &self.labels {
            (&l.name, l.at.x, l.at.y, l.layer.map(Layer::index)).hash(&mut h);
        }
        WindowKey(h.finish())
    }

    /// Replaces every instance by its cell's contents, one level deep
    /// (HEXT §3 step 2).
    pub fn expand_one_level(&self, lib: &Library) -> Content {
        let mut out = Content {
            rect: self.rect,
            boxes: self.boxes.clone(),
            instances: Vec::new(),
            labels: self.labels.clone(),
        };
        for &(cell, t) in &self.instances {
            let c = lib.cell(cell);
            for &(layer, r) in c.boxes() {
                out.boxes.push((layer, t.apply_rect(&r)));
            }
            for label in c.labels() {
                out.labels.push(FlatLabel {
                    name: label.name.clone(),
                    at: t.apply_point(label.at),
                    layer: label.layer,
                });
            }
            for inst in c.instances() {
                out.instances.push((inst.cell, inst.transform.then(t)));
            }
        }
        out
    }

    /// Subdivides the window around its instances: overlapping
    /// instance bounding boxes become clusters (one window each), and
    /// the remaining area is sliced into band-aligned tiles. Loose
    /// geometry is clipped at the window edges; every sub-window's
    /// rect is returned in this content's coordinates.
    ///
    /// # Panics
    ///
    /// Panics if called on a primitive window (no instances).
    pub fn subdivide(&self, lib: &Library) -> Vec<Content> {
        assert!(
            !self.instances.is_empty(),
            "subdivide requires instances; primitive windows go to the flat extractor"
        );

        // Instance bounding boxes, clipped to the window.
        let inst_bbox: Vec<Rect> = self
            .instances
            .iter()
            .map(|&(cell, t)| {
                let bb = lib
                    .cell(cell)
                    .bounding_box()
                    .expect("instantiated cells have bounding boxes");
                t.apply_rect(&bb)
            })
            .collect();

        // Cluster overlapping bounding boxes (Newell–Fitzpatrick
        // disjoint transformation). Iterate a sweep until stable.
        let mut cluster_of: Vec<usize> = (0..inst_bbox.len()).collect();
        let mut cluster_rect = inst_bbox.clone();
        loop {
            let mut changed = false;
            // Sort active cluster ids by x_min.
            let mut ids: Vec<usize> = (0..cluster_rect.len())
                .filter(|&i| cluster_of.contains(&i))
                .collect();
            ids.sort_unstable_by_key(|&i| cluster_rect[i].x_min);
            let mut active: Vec<usize> = Vec::new();
            for &i in &ids {
                let r = cluster_rect[i];
                active.retain(|&j| cluster_rect[j].x_max > r.x_min);
                let mut merged_into = None;
                for &j in &active {
                    if cluster_rect[j].overlaps(&r) {
                        merged_into = Some(j);
                        break;
                    }
                }
                if let Some(j) = merged_into {
                    cluster_rect[j] = cluster_rect[j].bounding_union(&r);
                    for c in cluster_of.iter_mut() {
                        if *c == i {
                            *c = j;
                        }
                    }
                    changed = true;
                } else {
                    active.push(i);
                }
            }
            if !changed {
                break;
            }
        }
        let mut clusters: Vec<usize> = cluster_of.clone();
        clusters.sort_unstable();
        clusters.dedup();

        // Horizontal bands from cluster y-bounds.
        let mut ys: Vec<Coord> = vec![self.rect.y_min, self.rect.y_max];
        for &c in &clusters {
            ys.push(
                cluster_rect[c]
                    .y_min
                    .clamp(self.rect.y_min, self.rect.y_max),
            );
            ys.push(
                cluster_rect[c]
                    .y_max
                    .clamp(self.rect.y_min, self.rect.y_max),
            );
        }
        ys.sort_unstable();
        ys.dedup();

        // Build windows: one per cluster, plus leftover tiles.
        let mut windows: Vec<Content> = Vec::new();
        // cluster id → window index.
        let mut window_of_cluster = std::collections::HashMap::new();
        for &c in &clusters {
            window_of_cluster.insert(c, windows.len());
            windows.push(Content {
                rect: cluster_rect[c],
                boxes: Vec::new(),
                instances: Vec::new(),
                labels: Vec::new(),
            });
        }
        // Band segment maps: (y0, y1, Vec<(x0, x1, window_idx)>).
        // (band y0, band y1, segments of (x0, x1, window index)).
        type BandSegments = Vec<(Coord, Coord, usize)>;
        let mut bands: Vec<(Coord, Coord, BandSegments)> = Vec::new();
        for band in ys.windows(2) {
            let (y0, y1) = (band[0], band[1]);
            if y0 == y1 {
                continue;
            }
            // Clusters spanning this band.
            let mut xs: Vec<Coord> = vec![self.rect.x_min, self.rect.x_max];
            let mut in_band: Vec<usize> = Vec::new();
            for &c in &clusters {
                let r = cluster_rect[c];
                if r.y_min <= y0 && y1 <= r.y_max {
                    xs.push(r.x_min.clamp(self.rect.x_min, self.rect.x_max));
                    xs.push(r.x_max.clamp(self.rect.x_min, self.rect.x_max));
                    in_band.push(c);
                }
            }
            xs.sort_unstable();
            xs.dedup();
            let mut segments = Vec::new();
            for seg in xs.windows(2) {
                let (x0, x1) = (seg[0], seg[1]);
                if x0 == x1 {
                    continue;
                }
                // Which cluster owns this segment?
                let owner = in_band
                    .iter()
                    .find(|&&c| cluster_rect[c].x_min <= x0 && x1 <= cluster_rect[c].x_max)
                    .copied();
                let idx = match owner {
                    Some(c) => window_of_cluster[&c],
                    None => {
                        windows.push(Content {
                            rect: Rect::new(x0, y0, x1, y1),
                            boxes: Vec::new(),
                            instances: Vec::new(),
                            labels: Vec::new(),
                        });
                        windows.len() - 1
                    }
                };
                segments.push((x0, x1, idx));
            }
            bands.push((y0, y1, segments));
        }

        // Instances into their cluster's window.
        for (i, &(cell, t)) in self.instances.iter().enumerate() {
            let idx = window_of_cluster[&cluster_of[i]];
            windows[idx].instances.push((cell, t));
        }

        // Clip loose geometry into the windows it overlaps.
        for &(layer, r) in &self.boxes {
            for (y0, y1, segments) in &bands {
                if r.y_max <= *y0 || r.y_min >= *y1 {
                    continue;
                }
                for &(x0, x1, idx) in segments {
                    if r.x_max <= x0 || r.x_min >= x1 {
                        continue;
                    }
                    // Clip against the band segment, then against the
                    // owning window (cluster windows span several
                    // segments; pieces falling in the same window on
                    // adjacent bands are separate clipped boxes, which
                    // the extractor re-merges).
                    let clip = Rect::new(
                        r.x_min.max(x0),
                        r.y_min.max(*y0),
                        r.x_max.min(x1),
                        r.y_max.min(*y1),
                    );
                    if !clip.is_empty() {
                        windows[idx].boxes.push((layer, clip));
                    }
                }
            }
        }

        // Labels by position.
        for l in &self.labels {
            let band = bands
                .iter()
                .find(|(y0, y1, _)| *y0 <= l.at.y && l.at.y < *y1)
                .or(bands.last());
            if let Some((_, _, segments)) = band {
                let seg = segments
                    .iter()
                    .find(|(x0, x1, _)| *x0 <= l.at.x && l.at.x < *x1)
                    .or(segments.last());
                if let Some(&(_, _, idx)) = seg {
                    windows[idx].labels.push(l.clone());
                }
            }
        }

        windows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib(src: &str) -> Library {
        Library::from_cif_text(src).expect("valid CIF")
    }

    #[test]
    fn chip_content_collects_top_level() {
        let l = lib("DS 1; L ND; B 4 4 0 0; DF; C 1 T 10 10; L NM; B 4 4 100 100; 94 X 100 100; E");
        let c = Content::chip(&l).expect("non-empty");
        assert_eq!(c.instances.len(), 1);
        assert_eq!(c.boxes.len(), 1);
        assert_eq!(c.labels.len(), 1);
        assert!(!c.is_primitive());
    }

    #[test]
    fn normalize_shifts_to_origin_and_key_matches() {
        let l = lib("DS 1; L ND; B 4 4 0 0; DF; C 1 T 1000 2000; C 1 T 5000 2000; E");
        let c = Content::chip(&l).unwrap();
        let windows = c.subdivide(&l);
        // Two cluster windows with identical content.
        let mut keys: Vec<WindowKey> = windows
            .iter()
            .filter(|w| !w.instances.is_empty())
            .map(|w| {
                let mut w = w.clone();
                w.normalize();
                w.canonicalize(&l);
                w.key(&l)
            })
            .collect();
        assert_eq!(keys.len(), 2);
        keys.dedup();
        assert_eq!(keys.len(), 1, "identical cells must hash equal");
    }

    #[test]
    fn different_orientations_hash_differently() {
        let l = lib("DS 1; L ND; B 4 8 0 0; DF; C 1 T 1000 1000; C 1 R 0 1 T 5000 1000; E");
        let c = Content::chip(&l).unwrap();
        let windows = c.subdivide(&l);
        let keys: Vec<WindowKey> = windows
            .iter()
            .filter(|w| !w.instances.is_empty())
            .map(|w| {
                let mut w = w.clone();
                w.normalize();
                w.canonicalize(&l);
                w.key(&l)
            })
            .collect();
        assert_eq!(keys.len(), 2);
        assert_ne!(keys[0], keys[1]);
    }

    #[test]
    fn expansion_descends_one_level() {
        let l = lib("DS 1; L ND; B 4 4 0 0; DF;
             DS 2; C 1 T 0 0; C 1 T 100 0; DF;
             C 2 T 1000 1000; E");
        let c = Content::chip(&l).unwrap();
        let e = c.expand_one_level(&l);
        // The call to symbol 2 became two calls to symbol 1.
        assert_eq!(e.instances.len(), 2);
        assert!(e.boxes.is_empty());
        let ee = e.expand_one_level(&l);
        assert_eq!(ee.instances.len(), 0);
        assert_eq!(ee.boxes.len(), 2);
    }

    #[test]
    fn overlapping_instances_cluster_together() {
        let l = lib("DS 1; L ND; B 1000 1000 500 500; DF;
             C 1 T 0 0; C 1 T 500 0; C 1 T 5000 0; E");
        let c = Content::chip(&l).unwrap();
        let windows = c.subdivide(&l);
        let clusters: Vec<&Content> = windows.iter().filter(|w| !w.instances.is_empty()).collect();
        assert_eq!(clusters.len(), 2);
        let sizes: Vec<usize> = {
            let mut v: Vec<usize> = clusters.iter().map(|w| w.instances.len()).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(sizes, vec![1, 2]);
    }

    #[test]
    fn loose_geometry_is_clipped_at_window_edges() {
        // A wire crossing the gap between two cells gets split.
        let l = lib("DS 1; L ND; B 1000 1000 500 500; DF;
             C 1 T 0 0; C 1 T 4000 0;
             L NM; B 6000 200 2500 500; E");
        let c = Content::chip(&l).unwrap();
        let windows = c.subdivide(&l);
        let total_wire_pieces: usize = windows
            .iter()
            .map(|w| w.boxes.iter().filter(|(l, _)| *l == Layer::Metal).count())
            .sum();
        assert!(
            total_wire_pieces >= 3,
            "wire must split: {total_wire_pieces}"
        );
        // Coverage is preserved.
        let area: i64 = windows
            .iter()
            .flat_map(|w| w.boxes.iter())
            .filter(|(l, _)| *l == Layer::Metal)
            .map(|(_, r)| r.area())
            .sum();
        assert_eq!(area, 6000 * 200);
        // Every piece lies inside its window.
        for w in &windows {
            for (_, r) in &w.boxes {
                assert!(w.rect.contains_rect(r), "{r} outside {}", w.rect);
            }
        }
    }

    #[test]
    fn windows_tile_the_parent() {
        let l = lib("DS 1; L ND; B 1000 1000 500 500; DF;
             C 1 T 0 0; C 1 T 3000 2000; L NM; B 200 200 4900 100; E");
        let c = Content::chip(&l).unwrap();
        let windows = c.subdivide(&l);
        let covered: i64 = windows.iter().map(|w| w.rect.area()).sum();
        assert_eq!(covered, c.rect.area(), "windows must tile the parent");
        // And be pairwise disjoint.
        for (i, a) in windows.iter().enumerate() {
            for b in &windows[i + 1..] {
                assert!(!a.rect.overlaps(&b.rect), "{} overlaps {}", a.rect, b.rect);
            }
        }
    }

    #[test]
    fn labels_are_routed_to_their_window() {
        let l = lib("DS 1; L ND; B 1000 1000 500 500; DF;
             C 1 T 0 0; C 1 T 4000 0; 94 SIG 4500 500; E");
        let c = Content::chip(&l).unwrap();
        let windows = c.subdivide(&l);
        let with_label: Vec<&Content> = windows.iter().filter(|w| !w.labels.is_empty()).collect();
        assert_eq!(with_label.len(), 1);
        assert!(with_label[0].rect.contains_point(Point::new(4500, 500)));
    }
}
