// Package storagetest provides a fault-injecting storage.Backend for
// tests of the durability contract: nothing is acknowledged after a
// failed append or fsync, a failed fsync is never retried, and reopen
// recovers a prefix that covers every acknowledged record. Only test
// files import it.
package storagetest

import (
	"sync"
	"syscall"

	"pdps/internal/storage"
)

// Fault names the call a Faulty backend fails.
type Fault int

const (
	// None passes every call through.
	None Fault = iota
	// AppendEIO fails an Append with EIO.
	AppendEIO
	// AppendENOSPC fails an Append with ENOSPC.
	AppendENOSPC
	// SyncEIO fails a Sync with EIO.
	SyncEIO
)

func (f Fault) String() string {
	switch f {
	case AppendEIO:
		return "append-EIO"
	case AppendENOSPC:
		return "append-ENOSPC"
	case SyncEIO:
		return "sync-EIO"
	}
	return "none"
}

// Faulty wraps a backend, failing the at-th call (1-based) of the kind
// its fault names without passing that call on. Like a poisoned
// storage.File, it then fails every later Append and Sync with the same
// error, unforwarded. It counts every Append and Sync call, failed ones
// included, and the appends the last successful Sync covered. Safe for
// concurrent use, so a test may read the counts while a server session
// drives the backend. It does not forward storage.AutoCheckpointer, so
// an engine over it never checkpoints by itself.
type Faulty struct {
	storage.Backend
	fault Fault
	at    int

	mu              sync.Mutex
	appends, syncs  int
	staged, durable int
	err             error
}

// New wraps b so that the at-th call of the kind f names fails.
func New(b storage.Backend, f Fault, at int) *Faulty {
	return &Faulty{Backend: b, fault: f, at: at}
}

// Append forwards the record unless this call is the fault or the
// backend already failed.
func (b *Faulty) Append(r *storage.Record) (storage.LSN, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.appends++
	if b.err == nil && b.appends == b.at {
		switch b.fault {
		case AppendEIO:
			b.err = syscall.EIO
		case AppendENOSPC:
			b.err = syscall.ENOSPC
		}
	}
	if b.err != nil {
		return 0, b.err
	}
	lsn, err := b.Backend.Append(r)
	if err != nil {
		b.err = err
		return 0, err
	}
	b.staged++
	return lsn, nil
}

// Sync forwards unless this call is the fault or the backend already
// failed.
func (b *Faulty) Sync() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.syncs++
	if b.err == nil && b.fault == SyncEIO && b.syncs == b.at {
		b.err = syscall.EIO
	}
	if b.err != nil {
		return b.err
	}
	if err := b.Backend.Sync(); err != nil {
		b.err = err
		return err
	}
	b.durable = b.staged
	return nil
}

// Appends returns how many Append calls the backend has seen.
func (b *Faulty) Appends() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.appends
}

// Syncs returns how many Sync calls the backend has seen.
func (b *Faulty) Syncs() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.syncs
}

// Durable returns how many records the last successful Sync covered:
// the appends that reached the wrapped backend before it.
func (b *Faulty) Durable() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.durable
}
