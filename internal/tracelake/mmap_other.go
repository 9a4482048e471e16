//go:build !unix

package tracelake

import (
	"errors"
	"os"
)

// mmapOpen has no mapping to make here, so Open reads the file into
// memory.
func mmapOpen(_ *os.File, _ int64) ([]byte, func() error, error) {
	return nil, nil, errors.ErrUnsupported
}
