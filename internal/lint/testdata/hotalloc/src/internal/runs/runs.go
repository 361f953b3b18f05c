// Package runs is a fixture stub whose import path suffix matches the
// real run merger, whose auto-mark table row lists Merger.Next. The
// method here was renamed, so the row is stale and must be reported
// rather than silently dropping out of the proof obligation.
package runs // want `stale autoHotPath entry: Merger\.Next names no function in internal/runs`

// Merger mimics the real merger's shape.
type Merger struct{ n int }

// Advance is Next under a new name: not in the table, so unmarked.
func (m *Merger) Advance() int { // want Advance:`never`
	m.n++
	return m.n
}
