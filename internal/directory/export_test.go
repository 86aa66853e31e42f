package directory

// Test-only views of a Snapshot's counts. Production reads them through
// Directory.Stats, which covers the current view only; the tests also ask
// them of pinned, superseded views.

// Shards returns the shard count this view was published under (zero before
// any batch declared one).
func (s *Snapshot) Shards() int { return s.shards }

// ColdLen returns the number of cold-tier (retired) entries in this view.
func (s *Snapshot) ColdLen() int { return s.entries - s.hotLen }
