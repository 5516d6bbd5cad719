package durable

import (
	"context"
	"errors"
	"os"
	"syscall"
)

// transienter is implemented by errors that carry an explicit retryability
// verdict (MarkTransient attaches one).
type transienter interface {
	Transient() bool
}

type transientErr struct{ err error }

func (t transientErr) Error() string   { return t.err.Error() }
func (t transientErr) Unwrap() error   { return t.err }
func (t transientErr) Transient() bool { return true }

// MarkTransient wraps err so IsTransient reports true for it regardless of
// its underlying type. Use it when the caller knows the failure is
// environmental (a remote trainer timed out, a resource was briefly
// exhausted) but the error chain doesn't say so.
func MarkTransient(err error) error {
	if err == nil {
		return nil
	}
	return transientErr{err: err}
}

// IsTransient classifies err for the fleet's recovery policy: transient
// errors (I/O pressure, disk full, timeouts, interrupted syscalls) are worth
// retrying with backoff; everything else is deterministic — the same input
// will fail the same way — and should quarantine until the input changes.
//
// A missing artifact (ErrNotFound / fs.ErrNotExist) is deterministic: the
// caller's move is to rebuild it, not retry the load.
func IsTransient(err error) bool {
	if err == nil {
		return false
	}
	var t transienter
	if errors.As(err, &t) {
		return t.Transient()
	}
	if errors.Is(err, context.DeadlineExceeded) || os.IsTimeout(err) {
		return true
	}
	var errno syscall.Errno
	if errors.As(err, &errno) {
		switch errno {
		case syscall.ENOSPC, syscall.EIO, syscall.EAGAIN, syscall.EINTR,
			syscall.EMFILE, syscall.ENFILE, syscall.ETIMEDOUT,
			syscall.ECONNRESET, syscall.ECONNREFUSED:
			return true
		}
	}
	return false
}
