-- A selective filtered scan directly above PAIRS. With pushdown the
-- predicate is absorbed into the scan, so only surviving rows reach the
-- device; without it the same conjunct runs as a hardware Filter module
-- over the full stream.
INSERT INTO Selected
SELECT *
FROM PAIRS
WHERE POS < 2400
