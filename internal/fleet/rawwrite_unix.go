//go:build unix

package fleet

import "syscall"

// rawWrite is one write(2) on a non-blocking socket: it returns at once
// with what the kernel took, or EAGAIN.
func rawWrite(fd uintptr, b []byte) (int, error) { return syscall.Write(int(fd), b) }
