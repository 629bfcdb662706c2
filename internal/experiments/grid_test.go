package experiments

import (
	"fmt"
	"testing"
)

// TestGridPlacesCells: cell (r, c) lands at [r][c] whatever the worker
// count, and the error is the first failing cell's in row-major order.
func TestGridPlacesCells(t *testing.T) {
	for _, workers := range []int{1, 4} {
		o := Quick()
		o.Workers = workers
		got, err := grid(o, 3, 5, func(r, c int) (string, error) {
			return fmt.Sprintf("%d,%d", r, c), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 3 {
			t.Fatalf("workers=%d: %d rows, want 3", workers, len(got))
		}
		for r, row := range got {
			if len(row) != 5 {
				t.Fatalf("workers=%d: row %d has %d cells, want 5", workers, r, len(row))
			}
			for c, v := range row {
				if want := fmt.Sprintf("%d,%d", r, c); v != want {
					t.Errorf("workers=%d: [%d][%d] = %s, want %s", workers, r, c, v, want)
				}
			}
		}
		_, err = grid(o, 3, 5, func(r, c int) (int, error) {
			if r*5+c >= 7 {
				return 0, fmt.Errorf("cell %d,%d", r, c)
			}
			return 0, nil
		})
		if err == nil || err.Error() != "cell 1,2" {
			t.Errorf("workers=%d: err = %v, want cell 1,2", workers, err)
		}
	}
}
