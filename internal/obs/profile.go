package obs

import (
	"os"
	"runtime/pprof"
)

// StartCPUProfile starts a pprof CPU profile of the whole process, written
// to path. The returned stop ends the profile and closes the file; the
// profile is complete only once stop has returned, so a process that exits
// through os.Exit before calling it leaves a truncated file.
func StartCPUProfile(path string) (stop func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}
