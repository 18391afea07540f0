-- Mate-distance histogram: the reference row explodes into one row per
-- position, pairs join against it on alignment position, and the insert
-- size MPOS - POS is binned.
CREATE TABLE RefPos AS
PosExplode (REF.SEQ, REF.POS)
FROM REF
CREATE TABLE Joined AS
SELECT *
FROM PAIRS
INNER JOIN RefPos
ON PAIRS.POS = RefPos.POS
CREATE TABLE Dist AS
SELECT PAIRS.MPOS - PAIRS.POS AS D
FROM Joined
INSERT INTO MateHist
SELECT D, COUNT(*)
FROM Dist
GROUP BY D
ORDER BY D
