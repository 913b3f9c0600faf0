// Epoch-tagged names: when cluster membership changes (a server joins or
// leaves), the striping policy changes with it, and the reshape copies
// each file from the old placement to the new one.
//
// Epoch-tagged object names keep the two placements disjoint on servers
// that appear in both: the same stripe index maps to a different object
// row when Width changes, so reusing one object name across widths would
// interleave incompatible layouts. Epoch 1 (the build-time membership)
// keeps the plain name, so static clusters remain wire- and
// store-compatible with everything written before layouts were versioned.
package layout

import "fmt"

// EpochName returns the stripe-object name used under the given epoch.
// Epoch 0 and 1 keep the plain name (the pre-elastic layout); later
// epochs suffix it, keeping old- and new-layout objects disjoint during a
// migration. Compose with ReplicaName: EpochName(ReplicaName(n, r), e).
func EpochName(name string, epoch uint32) string {
	if epoch <= 1 {
		return name
	}
	return fmt.Sprintf("%s@e%d", name, epoch)
}
