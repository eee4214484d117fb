// Package store is the networked priority block store: a TCP server that
// holds coded blocks in memory, a pooled client with retries, and a
// replicated store that maps priority level to replication factor so the
// critical prefix survives more node losses — the paper's
// differentiated persistence made operational at the storage layer
// (Sec. 4 pre-distribution; Dimakis et al.'s client/storage-node split).
//
// Everything rides on one frame format (see frame.go) that carries
// CodedBlocks in their core wire format, so a block on the socket is
// byte-identical to a block on disk.
package store

import "errors"

// Sentinel errors. All client-visible failures wrap one of these, so
// callers branch with errors.Is instead of string matching.
var (
	// ErrCorruptFrame reports a frame whose CRC32 or length field did not
	// validate — transport corruption, not a semantic failure. The client
	// treats it as retryable.
	ErrCorruptFrame = errors.New("store: corrupt frame")

	// ErrStoreUnavailable reports that a store (or enough of its replicas)
	// could not be reached: dial failures, drained servers, exhausted
	// retries.
	ErrStoreUnavailable = errors.New("store: unavailable")

	// ErrBadRequest reports a request the server understood but rejected
	// (malformed block, unknown frame type). Not retryable: resending the
	// same bytes cannot succeed.
	ErrBadRequest = errors.New("store: bad request")

	// ErrClientClosed reports an operation on a closed Client.
	ErrClientClosed = errors.New("store: client closed")

	// ErrStoreFull reports a put rejected because the storage engine is at
	// capacity (NewMemStore's cap or diskstore's MaxBlocks). It is
	// deliberately distinguishable from other put failures: a client gives
	// up on the replica immediately instead of burning retries on a store
	// that cannot un-fill, while errors.Is(err, ErrStoreUnavailable) still
	// holds so replicated fail-over and repair keep routing around it.
	ErrStoreFull error = &storeFullError{}
)

// storeFullError makes ErrStoreFull match ErrStoreUnavailable under
// errors.Is without string matching: full is a *kind* of unavailable
// (try another replica), but callers who care can test for it exactly.
type storeFullError struct{}

func (*storeFullError) Error() string { return "store: full" }

func (*storeFullError) Is(target error) bool { return target == ErrStoreUnavailable }
