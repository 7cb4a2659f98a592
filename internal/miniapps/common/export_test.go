package common

// ResetRecordings empties the process-wide recording cache, so the
// next launch of every functional input executes.
func ResetRecordings() {
	recordings.mu.Lock()
	defer recordings.mu.Unlock()
	clear(recordings.entries)
}

// RecordingCount returns how many functional inputs have a recording.
func RecordingCount() int {
	recordings.mu.Lock()
	defer recordings.mu.Unlock()
	return len(recordings.entries)
}

// RecordingCapacity is the cache bound.
const RecordingCapacity = cacheCapacity
