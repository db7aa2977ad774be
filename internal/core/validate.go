package core

import "fmt"

// CheckInvariants verifies the filter's structural invariants: every block
// passes minifilter's Validate (exactly its geometry's bucket count of
// terminator bits), and block occupancies sum to Count. It returns a
// descriptive error for the first violation found; the stream readers run
// it on untrusted input, and the test suite uses it for corruption
// (failure-injection) testing and long-churn audits.
func (f *plainFilter[B, F, P]) CheckInvariants() error {
	var total uint64
	for i := range f.blocks {
		blk := P(&f.blocks[i])
		if err := blk.Validate(); err != nil {
			return fmt.Errorf("block %d: %w", i, err)
		}
		total += uint64(blk.Occupancy())
	}
	if total != f.count {
		return fmt.Errorf("occupancy sum %d != count %d", total, f.count)
	}
	return nil
}

// CheckInvariants verifies the value-associating filter's structural
// invariants (the value array is opaque bytes, so beyond its length the
// block audit is the whole check).
func (f *KVFilter8) CheckInvariants() error {
	if uint64(len(f.vals)) != uint64(len(f.blocks))*f.geo.slots {
		return fmt.Errorf("value array holds %d bytes for %d blocks", len(f.vals), len(f.blocks))
	}
	return f.plain8.CheckInvariants()
}
