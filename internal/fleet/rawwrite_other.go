//go:build !unix

package fleet

import "errors"

// rawWrite has no portable form off unix; every send takes the queue.
func rawWrite(uintptr, []byte) (int, error) { return 0, errors.ErrUnsupported }
