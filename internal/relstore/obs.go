package relstore

import "qint/internal/obs"

// ExecCounters are the executor's registry hooks: totals across every entry
// point (Execute, planned batches, the top-k union).
// Branches counts completed branch-query executions; Rows counts the rows
// those executions produced (the union's input volume, before top-k
// truncation). core wires one instance per engine via InstrumentExec; an
// un-instrumented catalog pays a single nil check per branch.
type ExecCounters struct {
	Branches *obs.Counter
	Rows     *obs.Counter
}

// InstrumentExec attaches executor counters to the catalog. Writer-side
// setup: call it before the catalog is shared with concurrent readers.
// Clone propagates the attachment, so every copy-on-write generation of
// one engine reports into the same counters.
func (c *Catalog) InstrumentExec(ec *ExecCounters) { c.execObs = ec }

// countExec records one completed branch execution that produced rows
// result rows. Nil-safe on an un-instrumented catalog.
func (c *Catalog) countExec(rows int) {
	if ec := c.execObs; ec != nil {
		ec.Branches.Inc()
		ec.Rows.Add(int64(rows))
	}
}
