-- Per-position coverage (pileup depth): explode every read into per-base
-- rows, then count rows per reference position. The window drops the
-- insertion sentinel rows (an insertion compares unordered to everything,
-- in both engines), which also lets the lowering prove the group key
-- non-nullable and bounded.
CREATE TABLE Bases AS
ReadExplode (READS.POS, READS.CIGAR, READS.SEQ)
FROM READS
INSERT INTO Coverage
SELECT POS, COUNT(*)
FROM Bases
WHERE POS < 4096
GROUP BY POS
ORDER BY POS
