package pages

import "time"

// IOModel converts byte counts observed at the buffer pool into modeled
// I/O time for a reference storage subsystem. The paper's testbed
// sustained "above 1 GB/s sequential read throughput for I/O limited
// scan operations" and Table 1 reports 1150 MB/s on the scan queries;
// DefaultIOModel is calibrated to that machine so the Table 1 harness can
// reconstruct the paper's time/CPU%/MB/s columns from our measured CPU
// time and counted bytes.
type IOModel struct {
	// SeqReadBytesPerSec is the sequential scan throughput.
	SeqReadBytesPerSec float64
}

// DefaultIOModel matches the paper's Dell PowerVault I/O subsystem.
var DefaultIOModel = IOModel{
	SeqReadBytesPerSec: 1150e6,
}

// SeqReadTime models the time to sequentially scan n bytes.
func (m IOModel) SeqReadTime(n uint64) time.Duration {
	if m.SeqReadBytesPerSec <= 0 {
		return 0
	}
	return time.Duration(float64(n) / m.SeqReadBytesPerSec * float64(time.Second))
}
