use ace_geom::{Coord, Interval, Layer, Point, Rect};
use ace_wirelist::{Device, DeviceKind, NetId};

/// A face of a rectangular window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Face {
    /// `x == window.x_min`.
    Left,
    /// `x == window.x_max`.
    Right,
    /// `y == window.y_min`.
    Bottom,
    /// `y == window.y_max`.
    Top,
}

impl Face {
    /// The face this one composes against (left↔right, top↔bottom).
    pub const fn opposite(self) -> Face {
        match self {
            Face::Left => Face::Right,
            Face::Right => Face::Left,
            Face::Bottom => Face::Top,
            Face::Top => Face::Bottom,
        }
    }
}

/// What a boundary contact carries: a net on a conducting layer, or a
/// transistor channel cut by the boundary (a *partial transistor*).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundarySignal {
    /// A conducting-layer net.
    Net(NetId),
    /// A channel; the payload indexes the window netlist's device
    /// list.
    Channel(usize),
}

/// One element of a window's interface-segment list: geometry
/// touching the window boundary.
///
/// "Associated with each element in the interface-segment list is
/// data about the extent of contact between the rectangle edge and
/// the boundary segment, and the identity of the signal carried by
/// the rectangle." (HEXT paper §3.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoundaryContact {
    /// Which face of the window the contact lies on.
    pub face: Face,
    /// Conducting layer, or `None` for channel contacts.
    pub layer: Option<Layer>,
    /// Extent of contact along the face (x-interval for top/bottom
    /// faces, y-interval for left/right faces).
    pub span: Interval,
    /// The signal carried.
    pub signal: BoundarySignal,
}

/// Raw accumulator data of one partial transistor — a device whose
/// channel touches the window boundary — exposed in window mode so the
/// hierarchical extractor and the band stitch can merge it with its
/// neighbours' fragments and recompute length/width afterwards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceDetail {
    /// Index of the device in the window netlist's device list.
    pub device: usize,
    /// Total channel area inside this window.
    pub area: i64,
    /// Channel bounding box.
    pub bbox: Rect,
    /// `true` if implant was seen over the channel.
    pub depletion: bool,
    /// Diffusion terminal contacts `(net, edge length)` inside the
    /// window.
    pub terminals: Vec<(NetId, Coord)>,
    /// Gate net.
    pub gate: NetId,
}

/// Extra results produced when extracting with
/// [`crate::ExtractOptions::with_window`].
///
/// A window-mode netlist lists its devices in a fixed order: first the
/// complete devices without an exposed terminal, sorted by location,
/// kind, length, width, gate, source and drain; then the partial and
/// exposed devices, sorted the same way.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowExtraction {
    /// The window rectangle.
    pub window: Rect,
    /// All boundary contacts, grouped by nothing in particular;
    /// consumers filter by face.
    pub contacts: Vec<BoundaryContact>,
    /// Raw data of the partial devices, in ascending device index.
    /// Devices the boundary does not cut are complete as listed in
    /// the netlist and have no entry, so the window output costs what
    /// the boundary costs, not what the whole device list costs.
    pub device_details: Vec<DeviceDetail>,
    /// Raw data of the complete devices that have two or more
    /// terminals, one of them on a net touching the boundary, in
    /// ascending device index. Joins outside the window can still
    /// merge such a device's terminal nets or reorder its
    /// equal-length ones, so a stitch re-finalizes it from this data
    /// once the nets are joined.
    pub exposed_devices: Vec<DeviceDetail>,
}

impl WindowExtraction {
    /// Contacts on one face, sorted by span.
    pub fn face_contacts(&self, face: Face) -> Vec<BoundaryContact> {
        let mut v: Vec<BoundaryContact> = self
            .contacts
            .iter()
            .copied()
            .filter(|c| c.face == face)
            .collect();
        v.sort_by_key(|c| (c.span.lo, c.span.hi));
        v
    }

    /// Indexes of devices whose channel touches the boundary.
    pub fn partial_device_indexes(&self) -> Vec<usize> {
        self.device_details.iter().map(|d| d.device).collect()
    }
}

/// The order stitched netlists list devices in: by location, kind,
/// length and width, then gate, source and drain. Window-mode
/// extractions list their complete devices in this order too (by their
/// own net ids), ahead of the partial and exposed ones, so a stitch
/// merges band outputs instead of sorting them.
type DeviceKey = (Point, DeviceKind, Coord, Coord, NetId, NetId, NetId);

pub(crate) fn device_key(d: &Device) -> DeviceKey {
    (
        d.location, d.kind, d.length, d.width, d.gate, d.source, d.drain,
    )
}

/// Indices of `devices` in [`device_key`] order, equal keys in index
/// order.
pub(crate) fn device_order(devices: &[Device]) -> Vec<u32> {
    // Locations rarely tie, so sort compact (location, index) pairs
    // and compare whole keys only within runs of equal locations.
    let mut order: Vec<(Point, u32)> = devices
        .iter()
        .enumerate()
        .map(|(i, d)| (d.location, i as u32))
        .collect();
    order.sort_unstable();
    let mut run = 0;
    while run < order.len() {
        let at = order[run].0;
        let end = run + order[run..].iter().take_while(|&&(p, _)| p == at).count();
        order[run..end].sort_unstable_by(|&(_, a), &(_, b)| {
            let (da, db) = (&devices[a as usize], &devices[b as usize]);
            device_key(da).cmp(&device_key(db)).then(a.cmp(&b))
        });
        run = end;
    }
    order.into_iter().map(|(_, i)| i).collect()
}

/// Reorders `items` so that position `i` holds the item that was at
/// `order[i]`, moving each item once.
pub(crate) fn permute<T>(items: &mut [T], mut order: Vec<u32>) {
    // Walk each cycle of the permutation once, marking finished
    // positions as fixed points.
    for start in 0..order.len() {
        let mut at = start;
        while order[at] as usize != at {
            let from = order[at] as usize;
            order[at] = at as u32;
            if from == start {
                break;
            }
            items.swap(at, from);
            at = from;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ace_geom::Point;

    #[test]
    fn permute_moves_each_item_to_its_slot() {
        let mut items = vec!['a', 'b', 'c', 'd', 'e'];
        permute(&mut items, vec![3, 0, 4, 1, 2]);
        assert_eq!(items, vec!['d', 'a', 'e', 'b', 'c']);
    }

    #[test]
    fn device_order_sorts_by_key_and_keeps_ties_in_place() {
        let device = |x, gate| Device {
            kind: DeviceKind::Enhancement,
            gate: NetId(gate),
            source: NetId(0),
            drain: NetId(0),
            length: 1,
            width: 1,
            location: Point::new(x, 0),
            channel_geometry: vec![],
        };
        let devices = vec![device(5, 0), device(1, 2), device(1, 1), device(5, 0)];
        assert_eq!(device_order(&devices), vec![2, 1, 0, 3]);
    }

    #[test]
    fn opposite_faces() {
        assert_eq!(Face::Left.opposite(), Face::Right);
        assert_eq!(Face::Top.opposite(), Face::Bottom);
        for f in [Face::Left, Face::Right, Face::Top, Face::Bottom] {
            assert_eq!(f.opposite().opposite(), f);
        }
    }

    #[test]
    fn face_contacts_filters_and_sorts() {
        let w = WindowExtraction {
            window: Rect::new(0, 0, 100, 100),
            contacts: vec![
                BoundaryContact {
                    face: Face::Top,
                    layer: Some(Layer::Metal),
                    span: Interval::new(50, 60),
                    signal: BoundarySignal::Net(NetId(1)),
                },
                BoundaryContact {
                    face: Face::Left,
                    layer: Some(Layer::Poly),
                    span: Interval::new(0, 10),
                    signal: BoundarySignal::Net(NetId(2)),
                },
                BoundaryContact {
                    face: Face::Top,
                    layer: None,
                    span: Interval::new(10, 20),
                    signal: BoundarySignal::Channel(0),
                },
            ],
            device_details: vec![DeviceDetail {
                device: 0,
                area: 4,
                bbox: Rect::new(10, 90, 20, 100),
                depletion: false,
                terminals: vec![],
                gate: NetId(0),
            }],
            exposed_devices: vec![],
        };
        let top = w.face_contacts(Face::Top);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].span, Interval::new(10, 20));
        assert_eq!(w.partial_device_indexes(), vec![0]);
        // Silence unused warnings for Point import path consistency.
        let _ = Point::ORIGIN;
    }
}
