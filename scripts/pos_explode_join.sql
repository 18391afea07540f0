-- The exploded reference joined against the pairs on position, the full
-- join output projected.
CREATE TABLE RefPos AS
PosExplode (REF.SEQ, REF.POS)
FROM REF
INSERT INTO Joined
SELECT *
FROM PAIRS
INNER JOIN RefPos
ON PAIRS.POS = RefPos.POS
