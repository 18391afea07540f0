-- The sum of the read start positions before 3000. Only POS is read, so
-- projection pushdown binds and streams POS alone: the CIGAR and SEQ list
-- columns, which no Memory Reader can stream, never reach the device.
INSERT INTO Starts
SELECT SUM(POS)
FROM READS
WHERE POS < 3000
