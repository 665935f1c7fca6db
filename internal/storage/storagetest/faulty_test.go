package storagetest

import (
	"errors"
	"syscall"
	"testing"

	"pdps/internal/storage"
	"pdps/internal/wm"
)

func rec() *storage.Record { return &storage.Record{Delta: &wm.Delta{}} }

// TestFaulty pins the wrapper's contract: calls before the fault pass
// through, the fault fails the At-th call of its kind unforwarded,
// every later Append and Sync fails with the same error, and every
// call is counted.
func TestFaulty(t *testing.T) {
	for _, tc := range []struct {
		fault Fault
		at    int
		want  error
	}{
		{AppendEIO, 2, syscall.EIO},
		{AppendENOSPC, 2, syscall.ENOSPC},
		{SyncEIO, 2, syscall.EIO},
	} {
		t.Run(tc.fault.String(), func(t *testing.T) {
			m := storage.NewMem()
			b := New(m, tc.fault, tc.at)
			if _, err := b.Append(rec()); err != nil {
				t.Fatal(err)
			}
			if err := b.Sync(); err != nil {
				t.Fatal(err)
			}
			_, got := b.Append(rec())
			if serr := b.Sync(); tc.fault == SyncEIO {
				got = serr
			}
			if !errors.Is(got, tc.want) {
				t.Fatalf("faulted call = %v, want %v", got, tc.want)
			}
			for i := 0; i < 2; i++ {
				if _, err := b.Append(rec()); !errors.Is(err, tc.want) {
					t.Fatalf("Append after the fault = %v, want %v", err, tc.want)
				}
				if err := b.Sync(); !errors.Is(err, tc.want) {
					t.Fatalf("Sync after the fault = %v, want %v", err, tc.want)
				}
			}
			if b.Appends() != 4 || b.Syncs() != 4 || b.Durable() != 1 {
				t.Fatalf("counts = %d appends, %d syncs, %d durable; want 4, 4, 1",
					b.Appends(), b.Syncs(), b.Durable())
			}
			r, err := m.Recover()
			if err != nil {
				t.Fatal(err)
			}
			wantLSN := storage.LSN(1)
			if tc.fault == SyncEIO {
				wantLSN = 2 // the second append reached the backend; its Sync did not
			}
			if r.LSN != wantLSN {
				t.Fatalf("backend holds LSN %d, want %d (faulted calls are not forwarded)", r.LSN, wantLSN)
			}
		})
	}
}
