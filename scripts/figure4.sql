/* The paper's Figure 4: per read, the number of aligned bases that match
   the reference. Adapted to this dialect: the reference table's position
   column is selected as POS via an alias, and the LIMIT offset counts
   from the window start @wstart (the partition's first reference
   position), since RelevantReference's row i holds position @wstart + i. */
/* I1: Extract Reads and Reference Partition P */
CREATE TABLE ReadPartition AS
SELECT POS, ENDPOS, CIGAR, SEQ
FROM READS PARTITION (0)
CREATE TABLE ReferenceRow AS
SELECT REFPOS AS POS, SEQ
FROM REF PARTITION (0)
/* I2: posExplode on ReferenceRow */
CREATE TABLE RelevantReference AS
PosExplode (ReferenceRow.SEQ, ReferenceRow.POS)
FROM ReferenceRow
DECLARE @rlen int
DECLARE @wstart int
FOR RefRow IN ReferenceRow:
  SET @wstart = RefRow.POS
END LOOP;
/* Iterate over Rows */
FOR SingleRead IN ReadPartition:
  SET @rlen = SingleRead.ENDPOS - SingleRead.POS
  /* Q1: ReadExplode */
  CREATE TABLE #AlignedRead AS
  ReadExplode (SingleRead.POS, SingleRead.CIGAR, SingleRead.SEQ)
  FROM SingleRead
  /* Q2: Inner-Join on position */
  CREATE TABLE #ReadAndRef AS
  SELECT #AlignedRead.SEQ, RelevantReference.SEQ
  FROM #AlignedRead
  INNER JOIN (SELECT * FROM RelevantReference LIMIT SingleRead.POS - @wstart, @rlen)
  ON #AlignedRead.POS = RelevantReference.POS
  /* Q3: count matching base pairs */
  INSERT INTO Output
  SELECT SUM(#AlignedRead.SEQ == RelevantReference.SEQ)
  FROM #ReadAndRef
END LOOP;
