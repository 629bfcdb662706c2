package graph

import "testing"

func TestUpdateCycles(t *testing.T) {
	if got := updateCycles(3, 2048); got != 6 {
		t.Errorf("updateCycles(3, 2048) = %d, want 6", got)
	}
	if got := updateCycles(3, 1); got != 3 {
		t.Errorf("updateCycles(3, 1) = %d, want 3 (ceil to 1 KB)", got)
	}
	if got := updateCycles(3, 0); got != 0 {
		t.Errorf("updateCycles(3, 0) = %d, want 0", got)
	}
}
