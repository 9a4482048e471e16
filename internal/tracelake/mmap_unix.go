//go:build unix

package tracelake

import (
	"os"
	"syscall"
)

// mmapOpen maps the whole file read-only and returns the mapping plus
// its releaser. The mapping is MAP_SHARED, so a multi-GB lake costs
// page-cache references, not a copy; PROT_READ keeps the container
// immutable under the decoder, which is what lets block checksums be
// cached after first verification. An empty file cannot be mapped
// (EINVAL), so Open reads it instead and OpenBytes names its size.
func mmapOpen(f *os.File, size int64) ([]byte, func() error, error) {
	if int64(int(size)) != size {
		return nil, nil, syscall.EFBIG
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, nil, err
	}
	return data, func() error { return syscall.Munmap(data) }, nil
}
