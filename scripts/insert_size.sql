-- A filtered GROUP BY with a computed key: the insert-size histogram of
-- the pairs whose read starts before position 12000, with the sum of
-- their start positions per bin.
CREATE TABLE Sizes AS
SELECT MPOS - POS AS D, POS
FROM PAIRS
INSERT INTO SizeTotals
SELECT D, COUNT(*), SUM(POS) AS TOTAL
FROM Sizes
WHERE POS < 12000
GROUP BY D
ORDER BY D
