package layout

import "testing"

func TestEpochName(t *testing.T) {
	if got := EpochName("f", 0); got != "f" {
		t.Fatalf("epoch 0: %q", got)
	}
	if got := EpochName("f", 1); got != "f" {
		t.Fatalf("epoch 1: %q", got)
	}
	if got := EpochName("f", 2); got != "f@e2" {
		t.Fatalf("epoch 2: %q", got)
	}
	if got := EpochName(ReplicaName("f", 1), 3); got != "f#1@e3" {
		t.Fatalf("replica+epoch: %q", got)
	}
}
