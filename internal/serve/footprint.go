package serve

// Footprint is the deterministic resident-memory account of one
// published snapshot: bytes per component, computed from array lengths
// rather than heap sampling, so two servers holding the same snapshot
// report the same numbers and a rebuild's delta is attributable to the
// input — never to GC timing. The one change a snapshot sees after it is
// published is the search index's Type-B forward lists, which the first
// Type-B query builds and IndexBytes counts from then on. Aliased
// storage is counted exactly once: the search index's layout shares the
// graph's CSR offsets (counted under Graph) and the gt/eq arrays
// (counted under Index), so Total is a true sum, not an over-estimate.
type Footprint struct {
	// GraphBytes is the CSR input (offsets + adjacency).
	GraphBytes int64 `json:"graph_bytes"`
	// CoreBytes is the coreness array (4 bytes per vertex).
	CoreBytes int64 `json:"core_bytes"`
	// HierarchyBytes is the HCD forest (per-node arrays, ragged
	// children/vertex lists, the per-vertex TID map).
	HierarchyBytes int64 `json:"hierarchy_bytes"`
	// IndexBytes is the searcher's exclusive index storage (the
	// coreness-ordered layout or the gt/eq preprocessing arrays, plus
	// the Type-B forward lists once a Type-B query has built them).
	IndexBytes int64 `json:"index_bytes"`
	// LocalBytes is the local-query binary-lifting table.
	LocalBytes int64 `json:"local_bytes"`
	// TotalBytes is the sum of the components.
	TotalBytes int64 `json:"total_bytes"`
}

// Footprint computes the snapshot's resident-memory account. Pure
// arithmetic over array lengths — safe to call on every /stats request
// and every /metrics scrape.
func (snap *Snapshot) Footprint() Footprint {
	f := Footprint{
		GraphBytes: snap.Graph.Bytes(),
		CoreBytes:  int64(len(snap.Core)) * 4,
	}
	if snap.Searcher != nil {
		f.HierarchyBytes = snap.Searcher.Hierarchy().Bytes()
		f.IndexBytes = snap.Searcher.IndexBytes()
	}
	if snap.Local != nil {
		f.LocalBytes = snap.Local.Bytes()
	}
	f.TotalBytes = f.GraphBytes + f.CoreBytes + f.HierarchyBytes + f.IndexBytes + f.LocalBytes
	return f
}
